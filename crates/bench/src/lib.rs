//! The experiment harness: the [`experiments::EXPERIMENTS`] table that
//! the `gvfs-bench` runner regenerates `results/` from, the scale
//! bench's wire-level driver, and the helpers they share (RPC
//! breakdowns, JSON blocks, table printing).

use gvfs_core::protocol::{proc_ext, GVFS_CALLBACK_PROGRAM, GVFS_PROXY_PROGRAM};
use gvfs_nfs3::{proc3, NFS_PROGRAM};
use gvfs_rpc::stats::StatsSnapshot;
use std::path::Path;

pub mod experiments;
pub mod scale;

/// Sums one NFS procedure's calls across the native NFS program and the
/// GVFS proxy program (the proxy wraps NFS procedures under its own
/// program number).
pub fn nfs_calls(snap: &StatsSnapshot, procedure: u32) -> u64 {
    snap.calls(NFS_PROGRAM, procedure) + snap.calls(GVFS_PROXY_PROGRAM, procedure)
}

/// `GETINV` calls in a snapshot.
pub fn getinv_calls(snap: &StatsSnapshot) -> u64 {
    snap.calls(GVFS_PROXY_PROGRAM, proc_ext::GETINV)
}

/// Callback RPCs (per-file recalls + recovery callbacks) in a snapshot.
pub fn callback_calls(snap: &StatsSnapshot) -> u64 {
    snap.calls(GVFS_CALLBACK_PROGRAM, proc_ext::CALLBACK)
        + snap.calls(GVFS_CALLBACK_PROGRAM, proc_ext::RECOVER)
}

/// `PEERREAD` calls in a snapshot (the peer-mesh counter).
pub fn peerread_calls(snap: &StatsSnapshot) -> u64 {
    snap.calls(GVFS_CALLBACK_PROGRAM, proc_ext::PEERREAD)
}

/// The RPC-count breakdown the paper plots in Figures 4a and 6a.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcBreakdown {
    /// `GETATTR` calls.
    pub getattr: u64,
    /// `LOOKUP` calls.
    pub lookup: u64,
    /// `READ` calls.
    pub read: u64,
    /// `WRITE` calls.
    pub write: u64,
    /// `GETINV` polls.
    pub getinv: u64,
    /// Callback RPCs.
    pub callback: u64,
    /// Everything else (CREATE, REMOVE, LINK, ...).
    pub other: u64,
}

impl RpcBreakdown {
    /// Extracts the breakdown from a snapshot.
    pub fn from_snapshot(snap: &StatsSnapshot) -> Self {
        let getattr = nfs_calls(snap, proc3::GETATTR);
        let lookup = nfs_calls(snap, proc3::LOOKUP);
        let read = nfs_calls(snap, proc3::READ);
        let write = nfs_calls(snap, proc3::WRITE);
        let getinv = getinv_calls(snap);
        let callback = callback_calls(snap);
        let total = snap.total_calls();
        RpcBreakdown {
            getattr,
            lookup,
            read,
            write,
            getinv,
            callback,
            other: total - getattr - lookup - read - write - getinv - callback,
        }
    }

    /// Total calls.
    pub fn total(&self) -> u64 {
        self.getattr
            + self.lookup
            + self.read
            + self.write
            + self.getinv
            + self.callback
            + self.other
    }

    /// Consistency-related calls (the paper's comparison unit in §5.1.2:
    /// GETATTR + GETINV + CALLBACK).
    pub fn consistency_calls(&self) -> u64 {
        self.getattr + self.getinv + self.callback
    }

    /// JSON form.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "GETATTR": self.getattr,
            "LOOKUP": self.lookup,
            "READ": self.read,
            "WRITE": self.write,
            "GETINV": self.getinv,
            "CALLBACK": self.callback,
            "other": self.other,
            "total": self.total(),
        })
    }
}

/// The read-path counters of one proxy client (cache hits, gap misses,
/// speculative READs and their fate), as a figure/bench JSON block.
pub fn read_path_json(stats: &gvfs_core::proxy::client::ProxyClientStats) -> serde_json::Value {
    serde_json::json!({
        "read_hits": stats.read_hits,
        "read_misses": stats.read_misses,
        "prefetch_issued": stats.prefetch_issued,
        "prefetch_hits": stats.prefetch_hits,
        "prefetch_wasted": stats.prefetch_wasted,
        "cache_bytes": stats.cache_bytes,
        "cache_evictions": stats.cache_evictions,
        "restart_warm_blocks": stats.restart_warm_blocks,
        "peer_hits": stats.peer_hits,
        "peer_misses": stats.peer_misses,
        "peer_fallbacks": stats.peer_fallbacks,
        "peer_bytes_served": stats.peer_bytes_served,
        "integrity_failures": stats.integrity_failures,
        "quarantined_blocks": stats.quarantined_blocks,
        "refetch_repairs": stats.refetch_repairs,
        "scrub_repairs": stats.scrub_repairs,
        "integrity_dirty_loss": stats.integrity_dirty_loss,
    })
}

/// Sums the read-path counters across a session's proxy clients, key by
/// key over their [`read_path_json`] blocks, and returns the aggregate
/// block.
pub fn session_read_path(
    session: &gvfs_core::session::Session,
    clients: usize,
) -> serde_json::Value {
    use serde_json::{Number, Value};
    let mut agg = read_path_json(&gvfs_core::proxy::client::ProxyClientStats::default());
    for i in 0..clients {
        // Every block comes from `read_path_json`, so the keys line up.
        let (Value::Object(totals), Value::Object(block)) =
            (&mut agg, read_path_json(&session.proxy_client(i).stats()))
        else {
            unreachable!("read-path blocks are objects");
        };
        for ((_, total), (key, value)) in totals.iter_mut().zip(block) {
            match (total, value) {
                (Value::Number(Number::PosInt(t)), Value::Number(Number::PosInt(v))) => *t += v,
                _ => unreachable!("read-path counter {key} is not a count"),
            }
        }
    }
    agg
}

/// Human-readable name for a (program, procedure) pair, for JSON keys.
fn proc_name(program: u32, procedure: u32) -> String {
    let prog = match program {
        NFS_PROGRAM => "nfs",
        GVFS_PROXY_PROGRAM => "gvfs",
        GVFS_CALLBACK_PROGRAM => "cb",
        other => return format!("prog{other}.{procedure}"),
    };
    let proc = match (program, procedure) {
        (GVFS_CALLBACK_PROGRAM, proc_ext::CALLBACK) => "CALLBACK".into(),
        (GVFS_CALLBACK_PROGRAM, proc_ext::RECOVER) => "RECOVER".into(),
        (GVFS_CALLBACK_PROGRAM, proc_ext::PEERREAD) => "PEERREAD".into(),
        (_, p) if p == proc_ext::GETINV => "GETINV".into(),
        (_, proc3::NULL) => "NULL".into(),
        (_, proc3::GETATTR) => "GETATTR".into(),
        (_, proc3::LOOKUP) => "LOOKUP".into(),
        (_, proc3::READ) => "READ".into(),
        (_, proc3::WRITE) => "WRITE".into(),
        (_, proc3::CREATE) => "CREATE".into(),
        (_, proc3::COMMIT) => "COMMIT".into(),
        (_, p) => format!("proc{p}"),
    };
    format!("{prog}.{proc}")
}

/// RPC-channel metadata for a figure's JSON output: the pipelining
/// high-water mark and per-procedure mean latencies (§ the paper reports
/// RPC *counts*; this makes the concurrency of the channel observable
/// alongside them).
pub fn rpc_meta(snap: &StatsSnapshot) -> serde_json::Value {
    let mut latencies: Vec<(String, serde_json::Value)> = Vec::new();
    for (&(program, procedure), counter) in snap.iter() {
        if counter.latency_nanos == 0 {
            continue;
        }
        latencies.push((
            proc_name(program, procedure),
            serde_json::json!({
                "calls": counter.calls,
                "mean_latency_us": counter.mean_latency_nanos() / 1_000,
            }),
        ));
    }
    serde_json::json!({
        "max_in_flight": snap.max_in_flight(),
        "latency": serde_json::Value::Object(latencies),
    })
}

/// The proxy server's scale counters (fan-out window, delegation and
/// invalidation footprint, invalidation-lock contention, drain volumes) as a
/// figure/bench `server` JSON block.
pub fn server_meta(server: &gvfs_core::proxy::server::ProxyServer) -> serde_json::Value {
    let s = server.scale_stats();
    serde_json::json!({
        "recalls_sent": s.recalls_sent,
        "recalls_short_circuited": s.recalls_short_circuited,
        "fanout_window": s.fanout_window,
        "fanout_in_flight_hwm": s.fanout_in_flight_hwm,
        "health_entries": s.health_entries,
        "health_evicted": s.health_evicted,
        "deleg_files": s.deleg_files,
        "deleg_sharers": s.deleg_sharers,
        "deleg_approx_bytes": s.deleg_approx_bytes,
        "inval_clients": s.inval_clients,
        "inval_approx_bytes": s.inval_approx_bytes,
        "inval_lock_acquisitions": s.inval.lock_acquisitions,
        "inval_lock_contended": s.inval.lock_contended,
        "getinv_replies": s.inval.getinv_replies,
        "getinv_handles": s.inval.getinv_handles,
        "piggyback_replies": s.inval.piggyback_replies,
        "piggyback_handles": s.inval.piggyback_handles,
        "inval_evicted_buffers": s.inval.evicted_buffers,
    })
}

/// Prints a fixed-width header followed by rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: Vec<String> =
        header.iter().enumerate().map(|(i, h)| format!("{h:>w$}", w = widths[i])).collect();
    println!("{}", line.join("  "));
    for row in rows {
        let line: Vec<String> =
            row.iter().enumerate().map(|(i, c)| format!("{c:>w$}", w = widths[i])).collect();
        println!("{}", line.join("  "));
    }
}

/// Writes a JSON document under `results/`.
///
/// # Panics
///
/// Panics if the directory cannot be created or the file not written.
pub fn save_json(name: &str, value: &serde_json::Value) {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, serde_json::to_string_pretty(value).expect("serialize"))
        .expect("write json");
    println!("\n[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvfs_rpc::stats::RpcStats;

    #[test]
    fn breakdown_accounts_every_call() {
        let stats = RpcStats::new();
        stats.record(NFS_PROGRAM, proc3::GETATTR, 1, 1);
        stats.record(GVFS_PROXY_PROGRAM, proc3::GETATTR, 1, 1);
        stats.record(GVFS_PROXY_PROGRAM, proc_ext::GETINV, 1, 1);
        stats.record(GVFS_CALLBACK_PROGRAM, proc_ext::CALLBACK, 1, 1);
        stats.record(NFS_PROGRAM, proc3::CREATE, 1, 1);
        let b = RpcBreakdown::from_snapshot(&stats.snapshot());
        assert_eq!(b.getattr, 2);
        assert_eq!(b.getinv, 1);
        assert_eq!(b.callback, 1);
        assert_eq!(b.other, 1);
        assert_eq!(b.total(), 5);
        assert_eq!(b.consistency_calls(), 4);
    }
}
