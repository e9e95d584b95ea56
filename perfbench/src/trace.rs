//! Spans recorded from outside the program: around the benchmark's own
//! calls into a layer, and around every call a [`Timed`] service
//! decorator forwards to the layer's `RpcService`. Spans stay in memory
//! until the round ends.

use crate::measure::{thread_cpu_ns, wall_ns};
use gvfs_rpc::dispatch::RpcService;
use gvfs_rpc::message::OpaqueAuth;
use gvfs_rpc::RpcError;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The span that was open on the same thread when this one began;
    /// 0 for a root. A call handed to another simulation actor starts a
    /// new root there: the link to its sender is not visible from
    /// outside the program.
    pub parent: u64,
    /// Layer name.
    pub layer: &'static str,
    /// RPC procedure number, or the benchmark's op code for `client`.
    pub procedure: u32,
    /// Index of the recording thread (see [`thread_names`]).
    pub thread: u32,
    /// Wall-clock start and end, ns on the process-wide origin.
    pub wall: (u64, u64),
    /// The thread's CPU clock at start and end, ns.
    pub cpu: (u64, u64),
    /// Virtual time at start and end, ns; zero outside the simulator.
    pub virt: (u64, u64),
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static THREAD_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = {
        let name = std::thread::current().name().unwrap_or("unnamed").to_string();
        let mut names = THREAD_NAMES.lock().expect("thread-name table poisoned");
        let idx = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        names.push(name);
        idx
    };
}

fn virtual_ns() -> u64 {
    if gvfs_netsim::in_actor() {
        gvfs_netsim::now().as_nanos()
    } else {
        0
    }
}

/// Runs `f` inside a span of `layer`.
pub fn span<R>(layer: &'static str, procedure: u32, f: impl FnOnce() -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let thread = THREAD.with(|t| *t);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    let (v0, w0, c0) = (virtual_ns(), wall_ns(), thread_cpu_ns());
    let out = f();
    let (c1, w1, v1) = (thread_cpu_ns(), wall_ns(), virtual_ns());
    OPEN.with(|open| open.borrow_mut().pop());
    let span = Span {
        id,
        parent,
        layer,
        procedure,
        thread,
        wall: (w0, w1),
        cpu: (c0, c1),
        virt: (v0, v1),
    };
    SPANS.lock().expect("span buffer poisoned").push(span);
    out
}

/// Removes and returns every span recorded so far.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Names of the threads spans were recorded on, by [`Span::thread`].
fn thread_names() -> Vec<String> {
    THREAD_NAMES.lock().expect("thread-name table poisoned").clone()
}

/// An `RpcService` decorator that records one span per call. It
/// forwards `call_with_cred` as well as `call`, because some services
/// (the proxy server) read the caller's credential.
pub struct Timed {
    layer: &'static str,
    inner: Arc<dyn RpcService>,
}

impl Timed {
    /// Wraps `inner`, naming its spans `layer`.
    pub fn new(layer: &'static str, inner: Arc<dyn RpcService>) -> Self {
        Timed { layer, inner }
    }
}

impl RpcService for Timed {
    fn program(&self) -> u32 {
        self.inner.program()
    }

    fn version(&self) -> u32 {
        self.inner.version()
    }

    fn call(&self, procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        span(self.layer, procedure, || self.inner.call(procedure, args))
    }

    fn call_with_cred(
        &self,
        procedure: u32,
        args: &[u8],
        credential: &OpaqueAuth,
    ) -> Result<Vec<u8>, RpcError> {
        span(self.layer, procedure, || self.inner.call_with_cred(procedure, args, credential))
    }
}

/// How much of `within` the union of `parts` covers.
fn covered(within: (u64, u64), parts: &mut [(u64, u64)]) -> u64 {
    parts.sort_unstable();
    let (mut total, mut reach) = (0, within.0);
    for &(start, end) in parts.iter() {
        let (start, end) = (start.max(reach), end.min(within.1));
        if start < end {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Sums over the spans of one layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Total wall time, ns.
    pub wall_ns: u64,
    /// Total thread CPU time, ns.
    pub cpu_ns: u64,
    /// Wall time not covered by child spans, ns.
    pub self_wall_ns: u64,
    /// Thread CPU time not covered by child spans, ns.
    pub self_cpu_ns: u64,
    /// Total virtual time, ns.
    pub virtual_ns: u64,
}

/// Per-layer totals, with self time = a span's duration minus the part
/// of it that its child spans cover (on each clock separately).
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let mut wall: Vec<_> = kids.iter().map(|&k| spans[k].wall).collect();
        let mut cpu: Vec<_> = kids.iter().map(|&k| spans[k].cpu).collect();
        let (wall_ns, cpu_ns) = (s.wall.1 - s.wall.0, s.cpu.1.saturating_sub(s.cpu.0));
        let t = out.entry(s.layer).or_default();
        t.calls += 1;
        t.wall_ns += wall_ns;
        t.cpu_ns += cpu_ns;
        t.self_wall_ns += wall_ns - covered(s.wall, &mut wall);
        t.self_cpu_ns += cpu_ns - covered(s.cpu, &mut cpu).min(cpu_ns);
        t.virtual_ns += s.virt.1 - s.virt.0;
    }
    out
}

/// Thread CPU time covered by root spans (each root's time includes
/// every span nested under it on its thread).
pub fn root_cpu_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent == 0).map(|s| s.cpu.1.saturating_sub(s.cpu.0)).sum()
}

/// Writes `spans` as CSV, one line per span.
///
/// # Errors
///
/// I/O errors creating or writing the file.
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let names = thread_names();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id,parent,layer,procedure,thread,wall_start_ns,wall_end_ns,cpu_ns,virt_start_ns,virt_end_ns"
    )?;
    for s in spans {
        let thread = names.get(s.thread as usize).map_or("?", String::as_str);
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            s.id,
            s.parent,
            s.layer,
            s.procedure,
            thread,
            s.wall.0,
            s.wall.1,
            s.cpu.1.saturating_sub(s.cpu.0),
            s.virt.0,
            s.virt.1
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, layer: &'static str, wall: (u64, u64), cpu: (u64, u64)) -> Span {
        Span { id, parent, layer, procedure: 0, thread: 0, wall, cpu, virt: (0, 0) }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let spans = [
            s(1, 0, "client", (0, 100), (0, 60)),
            // Two overlapping children and one running past the parent.
            s(2, 1, "proxy_client", (10, 30), (5, 15)),
            s(3, 1, "proxy_client", (20, 50), (10, 30)),
            s(4, 1, "proxy_client", (90, 120), (50, 70)),
            // A grandchild counts against its parent only.
            s(5, 3, "server", (25, 45), (12, 20)),
        ];
        let t = layer_totals(&spans);
        let client = t["client"];
        assert_eq!((client.calls, client.wall_ns, client.cpu_ns), (1, 100, 60));
        // Wall: children cover [10,50] + [90,100] = 50 of 100.
        assert_eq!(client.self_wall_ns, 50);
        // CPU: children cover [5,30] + [50,60] = 35 of 60.
        assert_eq!(client.self_cpu_ns, 25);
        let proxy = t["proxy_client"];
        assert_eq!(proxy.calls, 3);
        assert_eq!(proxy.wall_ns, 20 + 30 + 30);
        assert_eq!(proxy.self_wall_ns, 20 + (30 - 20) + 30);
        assert_eq!(proxy.self_cpu_ns, 10 + (20 - 8) + 20);
        assert_eq!(t["server"].self_wall_ns, 20);
        assert_eq!(root_cpu_ns(&spans), 60);
    }

    #[test]
    fn nested_spans_link_parents_on_one_thread() {
        let _guard = crate::TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take_spans();
        let value = span("client", 7, || span("server", 1, || 42));
        assert_eq!(value, 42);
        let spans = take_spans();
        let outer = spans.iter().find(|s| s.layer == "client").expect("client span");
        let inner = spans.iter().find(|s| s.layer == "server").expect("server span");
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert!(outer.wall.0 <= inner.wall.0 && inner.wall.1 <= outer.wall.1);
    }
}
