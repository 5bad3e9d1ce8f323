//! Persistent, self-healing run cache: one JSON file per [`RunKey`].
//!
//! [`SweepExecutor`](crate::exec::SweepExecutor) memoizes reports in
//! memory for the life of the process; this module extends that identity
//! to disk so an interrupted paper-scale sweep resumes from its completed
//! points. The contract is strict:
//!
//! * **Bit-identical replay.** A loaded report compares equal — including
//!   every `f64`, which is stored as its IEEE bit pattern — to the report
//!   the original run computed, so a resumed sweep renders byte-identical
//!   figures at any `--jobs`.
//! * **Atomic writes.** Entries are written to a unique temp file and
//!   `rename`d into place; a killed process leaves either the old entry,
//!   the complete new one, or stray temp files — never a torn entry.
//! * **Never trust, always verify.** Every load re-parses the entry,
//!   re-serializes the report canonically, and compares an FNV-1a content
//!   checksum plus the schema version and the full [`RunKey`] (machine
//!   config and fault-plan fingerprints included). Any mismatch — a
//!   truncated file, a flipped bit, an entry written by a different
//!   machine config — is silently discarded and recomputed.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cellsim_eib::{EibStats, RingStats};
use cellsim_kernel::hash::fnv1a;
use cellsim_mem::{BankId, BankStats};

use crate::exec::RunKey;
use crate::fabric::FabricReport;
use crate::json::{self, JsonValue};
use crate::latency::{LatencyHistogram, LatencyMetrics, PathLatency};
use crate::metrics::{BankMetrics, FabricMetrics, FaultStats, SpeMetrics};

/// Entry format version; bumped whenever [`FabricReport`]'s persisted
/// shape changes, so stale-schema entries self-heal by recomputation.
const SCHEMA: u64 = 2;

/// Counters of disk-cache activity (see
/// [`SweepExecutor::disk_stats`](crate::exec::SweepExecutor::disk_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Entries loaded and verified.
    pub loaded: u64,
    /// Entries written.
    pub stored: u64,
    /// Entries found corrupt or stale, removed, and recomputed.
    pub discarded: u64,
}

/// A point-in-time census of the cache *directory* — as opposed to
/// [`DiskCacheStats`], which counts this process's activity. A shared
/// `--cache-dir` is written by every `cellsim-serve` worker and every
/// CLI invocation pointed at it, so operational visibility (how big has
/// the shared dir grown?) needs a scan, not process counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskDirStats {
    /// Committed entry files (`<hash>.json`).
    pub entries: u64,
    /// Total bytes across committed entries.
    pub bytes: u64,
    /// Leftover temp files from killed writers. Harmless (entries are
    /// temp-file + rename), but a monotone count signals crashed peers.
    pub temp_files: u64,
}

/// A directory of verified run-report entries.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    loaded: AtomicU64,
    stored: AtomicU64,
    discarded: AtomicU64,
    tmp_counter: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from creating the directory.
    pub fn open(dir: &Path) -> std::io::Result<DiskCache> {
        fs::create_dir_all(dir)?;
        Ok(DiskCache {
            dir: dir.to_path_buf(),
            loaded: AtomicU64::new(0),
            stored: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// Activity counters since open.
    pub fn stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            loaded: self.loaded.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }

    /// The entry file for `key`.
    pub fn entry_path(&self, key: &RunKey) -> PathBuf {
        self.dir
            .join(format!("{:016x}.json", fnv1a(key_json(key).as_bytes())))
    }

    /// Scans the directory and reports its current census. Errors
    /// reading the directory (or racing deletions mid-scan) degrade to
    /// smaller counts — this is operational telemetry, not a contract.
    pub fn dir_stats(&self) -> DiskDirStats {
        let mut stats = DiskDirStats::default();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return stats;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(".tmp-") {
                stats.temp_files += 1;
            } else if name.ends_with(".json") {
                stats.entries += 1;
                if let Ok(meta) = entry.metadata() {
                    stats.bytes += meta.len();
                }
            }
        }
        stats
    }

    /// Loads and verifies `key`'s entry. A missing entry returns `None`;
    /// a corrupt or stale one is removed and returns `None` (the caller
    /// recomputes — the cache never surfaces unverified data).
    pub fn load(&self, key: &RunKey) -> Option<FabricReport> {
        let path = self.entry_path(key);
        let text = crate::iofault::read_to_string(&path).ok()?;
        match validate(key, &text) {
            Some(report) => {
                self.loaded.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            None => {
                self.discarded.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Writes `key`'s entry atomically (unique temp file, then rename).
    /// Write errors are swallowed: the cache is an accelerator, never a
    /// correctness dependency — a failed store only costs a recompute.
    pub fn store(&self, key: &RunKey, report: &FabricReport) {
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let written = crate::iofault::write(&tmp, entry_json(key, report))
            .and_then(|()| crate::iofault::rename(&tmp, self.entry_path(key)));
        match written {
            Ok(()) => {
                self.stored.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
            }
        }
    }
}

/// Canonical JSON of a [`RunKey`]: names the entry file and is embedded
/// in the entry (and in every trace-store manifest) so loads verify the
/// full cache identity, not just the filename hash.
#[must_use]
pub fn key_json(key: &RunKey) -> String {
    let w = &key.workload;
    format!(
        "{{\"config\":{},\"faults\":{},\"pattern\":\"{}\",\"spes\":{},\
         \"volume\":{},\"elem\":{},\"list\":{},\"sync\":\"{}\",\
         \"params\":{},\"placement\":{}}}",
        key.config,
        key.faults,
        json::escape(w.pattern),
        w.spes,
        w.volume,
        w.elem,
        w.list,
        json::escape(&format!("{:?}", w.sync)),
        w.params,
        u64_array(key.placement.iter().map(|&p| u64::from(p)))
    )
}

fn entry_json(key: &RunKey, report: &FabricReport) -> String {
    let body = report_json(report);
    format!(
        "{{\"schema\":{SCHEMA},\"checksum\":\"{:016x}\",\"key\":{},\"report\":{}}}\n",
        fnv1a(body.as_bytes()),
        key_json(key),
        body
    )
}

/// Full verification: schema version, key identity, and the content
/// checksum recomputed over the canonical re-serialization of the parsed
/// report — a corrupted byte anywhere changes one of the three.
fn validate(key: &RunKey, text: &str) -> Option<FabricReport> {
    let v = json::parse(text).ok()?;
    if v.get("schema")?.as_u64()? != SCHEMA {
        return None;
    }
    let expected = json::parse(&key_json(key)).expect("canonical key JSON parses");
    if v.get("key")? != &expected {
        return None;
    }
    let report = parse_report(v.get("report")?)?;
    let canonical = report_json(&report);
    if v.get("checksum")?.as_str()? != format!("{:016x}", fnv1a(canonical.as_bytes())) {
        return None;
    }
    Some(report)
}

/// Stable 64-bit fingerprint of a [`RunKey`] (FNV-1a over its canonical
/// JSON): the disk cache's entry filename, and the compact identity the
/// serve protocol reports per streamed result.
#[must_use]
pub fn key_fingerprint(key: &RunKey) -> u64 {
    fnv1a(key_json(key).as_bytes())
}

/// Serializes a [`FabricReport`] to canonical one-line JSON. Every
/// `f64` is stored as its IEEE bit pattern, so
/// [`report_from_json`]`(parse(report_to_json(r))) == r` holds
/// bit-for-bit — the property both the disk cache and the serve wire
/// protocol rely on for exact replay.
#[must_use]
pub fn report_to_json(report: &FabricReport) -> String {
    report_json(report)
}

/// Parses a report serialized by [`report_to_json`]. Returns `None` on
/// any structural mismatch (wrong shape, missing field, stale schema).
#[must_use]
pub fn report_from_json(v: &JsonValue) -> Option<FabricReport> {
    parse_report(v)
}

// ---- canonical emission -------------------------------------------------

fn u64_array(values: impl Iterator<Item = u64>) -> String {
    let items: Vec<String> = values.map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// `f64`s persist as IEEE-754 bit patterns so replays are bit-identical
/// (decimal round-trips are not, and NaN payloads would not survive).
fn bits_array(values: &[f64]) -> String {
    u64_array(values.iter().map(|v| v.to_bits()))
}

fn hist_json(h: &LatencyHistogram) -> String {
    format!(
        "{{\"count\":{},\"total\":{},\"max\":{},\"buckets\":{}}}",
        h.count,
        h.total,
        h.max,
        u64_array(h.buckets.iter().copied())
    )
}

fn path_json(p: &PathLatency) -> String {
    format!(
        "{{\"commands\":{},\"end_to_end\":{},\"phase_cycles\":{},\
         \"dominant_counts\":{},\"nacks\":{},\"retries\":{},\
         \"retry_backoff_cycles\":{},\"exhausted_commands\":{}}}",
        p.commands,
        hist_json(&p.end_to_end),
        u64_array(p.phase_cycles.iter().copied()),
        u64_array(p.dominant_counts.iter().copied()),
        p.nacks,
        p.retries,
        p.retry_backoff_cycles,
        p.exhausted_commands
    )
}

fn spe_json(m: &SpeMetrics) -> String {
    format!(
        "{{\"busy_cycles\":{},\"idle_cycles\":{},\"stall_mfc_full_cycles\":{},\
         \"stall_sync_cycles\":{},\"stall_eib_cycles\":{},\"stall_mem_cycles\":{},\
         \"occupancy_cycles\":{}}}",
        m.busy_cycles,
        m.idle_cycles,
        m.stall_mfc_full_cycles,
        m.stall_sync_cycles,
        m.stall_eib_cycles,
        m.stall_mem_cycles,
        u64_array(m.occupancy_cycles.iter().copied())
    )
}

fn bank_name(bank: BankId) -> &'static str {
    match bank {
        BankId::Local => "local",
        BankId::Remote => "remote",
    }
}

fn bank_json(b: &BankMetrics) -> String {
    let s = &b.stats;
    format!(
        "{{\"bank\":\"{}\",\"accesses\":{},\"bytes\":{},\"turnaround_cycles\":{},\
         \"refresh_cycles\":{},\"busy_cycles\":{},\"conflicts\":{}}}",
        bank_name(b.bank),
        s.accesses,
        s.bytes,
        s.turnaround_cycles,
        s.refresh_cycles,
        s.busy_cycles,
        s.conflicts
    )
}

fn metrics_json(m: &FabricMetrics) -> String {
    let spes: Vec<String> = m.per_spe.iter().map(spe_json).collect();
    let rings: Vec<String> = m
        .rings
        .iter()
        .map(|r| {
            format!(
                "{{\"grants\":{},\"bytes\":{},\"busy_cycles\":{}}}",
                r.grants, r.bytes, r.busy_cycles
            )
        })
        .collect();
    let banks: Vec<String> = m.banks.iter().map(bank_json).collect();
    let f = &m.faults;
    format!(
        "{{\"run_cycles\":{},\"per_spe\":[{}],\"rings\":[{}],\"banks\":[{}],\
         \"faults\":{{\"nacks\":{},\"retries\":{},\"retries_exhausted\":{},\
         \"abandoned_packets\":{},\"degraded_cycles\":{}}},\
         \"events\":{},\"suppressed_pumps\":{},\"peak_live_packets\":{}}}",
        m.run_cycles,
        spes.join(","),
        rings.join(","),
        banks.join(","),
        f.nacks,
        f.retries,
        f.retries_exhausted,
        f.abandoned_packets,
        f.degraded_cycles,
        m.events,
        m.suppressed_pumps,
        m.peak_live_packets
    )
}

fn report_json(r: &FabricReport) -> String {
    let paths: Vec<String> = r.latency.paths.iter().map(path_json).collect();
    format!(
        "{{\"cycles\":{},\"total_bytes\":{},\"aggregate_gbps_bits\":{},\
         \"sum_gbps_bits\":{},\"per_spe_bytes\":{},\"per_spe_cycles\":{},\
         \"per_spe_gbps_bits\":{},\"eib\":{{\"grants\":{},\"bytes\":{},\
         \"wait_cycles\":{},\"segment_cycles\":{}}},\"packets\":{},\
         \"metrics\":{},\"latency\":{{\"paths\":[{}],\"element_service\":{}}}}}",
        r.cycles,
        r.total_bytes,
        r.aggregate_gbps.to_bits(),
        r.sum_gbps.to_bits(),
        u64_array(r.per_spe_bytes.iter().copied()),
        u64_array(r.per_spe_cycles.iter().copied()),
        bits_array(&r.per_spe_gbps),
        r.eib.grants,
        r.eib.bytes,
        r.eib.wait_cycles,
        r.eib.segment_cycles,
        r.packets,
        metrics_json(&r.metrics),
        paths.join(","),
        hist_json(&r.latency.element_service)
    )
}

// ---- verified parsing ---------------------------------------------------

fn get_u64(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn get_u64_vec(v: &JsonValue, key: &str) -> Option<Vec<u64>> {
    v.get(key)?
        .as_array()?
        .iter()
        .map(JsonValue::as_u64)
        .collect()
}

fn get_f64_bits(v: &JsonValue, key: &str) -> Option<f64> {
    Some(f64::from_bits(get_u64(v, key)?))
}

fn parse_hist(v: &JsonValue) -> Option<LatencyHistogram> {
    Some(LatencyHistogram {
        count: get_u64(v, "count")?,
        total: get_u64(v, "total")?,
        max: get_u64(v, "max")?,
        buckets: get_u64_vec(v, "buckets")?.try_into().ok()?,
    })
}

fn parse_path(v: &JsonValue) -> Option<PathLatency> {
    Some(PathLatency {
        commands: get_u64(v, "commands")?,
        end_to_end: parse_hist(v.get("end_to_end")?)?,
        phase_cycles: get_u64_vec(v, "phase_cycles")?.try_into().ok()?,
        dominant_counts: get_u64_vec(v, "dominant_counts")?.try_into().ok()?,
        nacks: get_u64(v, "nacks")?,
        retries: get_u64(v, "retries")?,
        retry_backoff_cycles: get_u64(v, "retry_backoff_cycles")?,
        exhausted_commands: get_u64(v, "exhausted_commands")?,
    })
}

fn parse_spe(v: &JsonValue) -> Option<SpeMetrics> {
    Some(SpeMetrics {
        busy_cycles: get_u64(v, "busy_cycles")?,
        idle_cycles: get_u64(v, "idle_cycles")?,
        stall_mfc_full_cycles: get_u64(v, "stall_mfc_full_cycles")?,
        stall_sync_cycles: get_u64(v, "stall_sync_cycles")?,
        stall_eib_cycles: get_u64(v, "stall_eib_cycles")?,
        stall_mem_cycles: get_u64(v, "stall_mem_cycles")?,
        occupancy_cycles: get_u64_vec(v, "occupancy_cycles")?,
    })
}

fn parse_bank(v: &JsonValue) -> Option<BankMetrics> {
    let bank = match v.get("bank")?.as_str()? {
        "local" => BankId::Local,
        "remote" => BankId::Remote,
        _ => return None,
    };
    Some(BankMetrics {
        bank,
        stats: BankStats {
            accesses: get_u64(v, "accesses")?,
            bytes: get_u64(v, "bytes")?,
            turnaround_cycles: get_u64(v, "turnaround_cycles")?,
            refresh_cycles: get_u64(v, "refresh_cycles")?,
            busy_cycles: get_u64(v, "busy_cycles")?,
            conflicts: get_u64(v, "conflicts")?,
        },
    })
}

fn parse_metrics(v: &JsonValue) -> Option<FabricMetrics> {
    let per_spe = v
        .get("per_spe")?
        .as_array()?
        .iter()
        .map(parse_spe)
        .collect::<Option<Vec<_>>>()?;
    let rings = v
        .get("rings")?
        .as_array()?
        .iter()
        .map(|r| {
            Some(RingStats {
                grants: get_u64(r, "grants")?,
                bytes: get_u64(r, "bytes")?,
                busy_cycles: get_u64(r, "busy_cycles")?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let banks = v
        .get("banks")?
        .as_array()?
        .iter()
        .map(parse_bank)
        .collect::<Option<Vec<_>>>()?;
    let f = v.get("faults")?;
    Some(FabricMetrics {
        run_cycles: get_u64(v, "run_cycles")?,
        per_spe,
        rings,
        banks,
        faults: FaultStats {
            nacks: get_u64(f, "nacks")?,
            retries: get_u64(f, "retries")?,
            retries_exhausted: get_u64(f, "retries_exhausted")?,
            abandoned_packets: get_u64(f, "abandoned_packets")?,
            degraded_cycles: get_u64(f, "degraded_cycles")?,
        },
        events: get_u64(v, "events")?,
        suppressed_pumps: get_u64(v, "suppressed_pumps")?,
        peak_live_packets: get_u64(v, "peak_live_packets")?,
    })
}

fn parse_report(v: &JsonValue) -> Option<FabricReport> {
    let eib = v.get("eib")?;
    let lat = v.get("latency")?;
    let paths: [PathLatency; 4] = lat
        .get("paths")?
        .as_array()?
        .iter()
        .map(parse_path)
        .collect::<Option<Vec<_>>>()?
        .try_into()
        .ok()?;
    let per_spe_gbps: Vec<f64> = get_u64_vec(v, "per_spe_gbps_bits")?
        .into_iter()
        .map(f64::from_bits)
        .collect();
    Some(FabricReport {
        cycles: get_u64(v, "cycles")?,
        total_bytes: get_u64(v, "total_bytes")?,
        aggregate_gbps: get_f64_bits(v, "aggregate_gbps_bits")?,
        sum_gbps: get_f64_bits(v, "sum_gbps_bits")?,
        per_spe_bytes: get_u64_vec(v, "per_spe_bytes")?,
        per_spe_cycles: get_u64_vec(v, "per_spe_cycles")?,
        per_spe_gbps,
        eib: EibStats {
            grants: get_u64(eib, "grants")?,
            bytes: get_u64(eib, "bytes")?,
            wait_cycles: get_u64(eib, "wait_cycles")?,
            segment_cycles: get_u64(eib, "segment_cycles")?,
        },
        packets: get_u64(v, "packets")?,
        metrics: parse_metrics(v.get("metrics")?)?,
        latency: LatencyMetrics {
            paths,
            element_service: parse_hist(lat.get("element_service")?)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{RunSpec, Workload};
    use crate::{CellSystem, Placement, SyncPolicy, TransferPlan};
    use std::sync::Arc;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cellsim-dc-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> (RunKey, FabricReport) {
        let system = CellSystem::blade();
        let plan = Arc::new(
            TransferPlan::builder()
                .get_from_memory(0, 64 << 10, 4096, SyncPolicy::AfterAll)
                .build()
                .unwrap(),
        );
        let spec = RunSpec::new(
            &system,
            Workload {
                pattern: "mem-get",
                spes: 1,
                volume: 64 << 10,
                elem: 4096,
                list: false,
                sync: SyncPolicy::AfterAll,
                params: 0,
            },
            Placement::identity(),
            Arc::clone(&plan),
        );
        let report = system.try_run(&Placement::identity(), &plan).unwrap();
        (spec.key, report)
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        let (key, report) = sample();
        assert!(cache.load(&key).is_none(), "cold cache is empty");
        cache.store(&key, &report);
        let loaded = cache.load(&key).expect("stored entry loads");
        assert_eq!(loaded, report);
        assert_eq!(
            loaded.aggregate_gbps.to_bits(),
            report.aggregate_gbps.to_bits()
        );
        assert_eq!(
            cache.stats(),
            DiskCacheStats {
                loaded: 1,
                stored: 1,
                discarded: 0
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_corrupted_entries_are_discarded() {
        let dir = tmp_dir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let (key, report) = sample();
        cache.store(&key, &report);
        let path = cache.entry_path(&key);

        // Truncation: half an entry is not an entry.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.load(&key).is_none());
        assert!(!path.exists(), "corrupt entry is removed");

        // Bit flip in a numeric field: parses, but the checksum refutes it.
        cache.store(&key, &report);
        let text = fs::read_to_string(&path).unwrap();
        let pos = text.find("\"cycles\":").unwrap() + "\"cycles\":".len();
        let mut bytes = text.into_bytes();
        bytes[pos] = if bytes[pos] == b'9' { b'8' } else { b'9' };
        fs::write(&path, bytes).unwrap();
        assert!(cache.load(&key).is_none());

        // Tampered checksum field itself.
        cache.store(&key, &report);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("\"checksum\":\"", "\"checksum\":\"f")).unwrap();
        assert!(cache.load(&key).is_none());
        assert_eq!(cache.stats().discarded, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_report_round_trips_bit_identically() {
        let (key, report) = sample();
        let text = report_to_json(&report);
        let parsed = report_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(
            parsed.aggregate_gbps.to_bits(),
            report.aggregate_gbps.to_bits()
        );
        // The fingerprint is stable across calls and key clones.
        assert_eq!(key_fingerprint(&key), key_fingerprint(&key.clone()));
    }

    /// Persisted cache entries, trace-store directories and metric
    /// baselines are named by these fingerprints: a hash change would
    /// silently orphan all of them.
    #[test]
    fn fingerprints_are_pinned() {
        assert_eq!(
            crate::exec::config_fingerprint(CellSystem::blade().config()),
            0xdce9_ed52_2984_e9ba
        );
        assert_eq!(key_fingerprint(&sample().0), 0x6dd5_33b1_6396_d68c);
    }

    #[test]
    fn dir_stats_census_tracks_entries_and_temp_files() {
        let dir = tmp_dir("census");
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.dir_stats(), DiskDirStats::default());
        let (key, report) = sample();
        cache.store(&key, &report);
        let stats = cache.dir_stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        assert_eq!(stats.temp_files, 0);
        // A stray temp file from a killed writer is counted, not hidden.
        fs::write(dir.join(".tmp-999-0"), "half an entry").unwrap();
        assert_eq!(cache.dir_stats().temp_files, 1);
        assert_eq!(cache.dir_stats().entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_for_a_different_key_are_ignored() {
        let dir = tmp_dir("stale");
        let cache = DiskCache::open(&dir).unwrap();
        let (key, report) = sample();
        cache.store(&key, &report);

        // Simulate a stale config fingerprint: the same bytes parked at
        // another key's path must not satisfy that key.
        let mut other = key.clone();
        other.config ^= 0xdead_beef;
        fs::copy(cache.entry_path(&key), cache.entry_path(&other)).unwrap();
        assert!(cache.load(&other).is_none(), "key mismatch is discarded");
        assert_eq!(cache.stats().discarded, 1);
        // The honest entry is untouched.
        assert_eq!(cache.load(&key).unwrap(), report);
        let _ = fs::remove_dir_all(&dir);
    }
}
