//! The two simulated workloads. Kernel NFS clients (`NfsClient`) drive
//! a GVFS session in virtual time, closed loop: each client issues its
//! next op only when the previous one has returned.

use crate::measure::{proc_status, process_cpu_ns, thread_cpu_ns, ContentPool, Rng};
use crate::round::{ratio, Modelled, OpLog, Round};
use crate::trace::{self, Timed};
use gvfs_client::{ClientError, MountOptions, NfsClient};
use gvfs_core::session::{Session, SessionConfig, SessionHandle, EXPORT_PATH};
use gvfs_core::ConsistencyModel;
use gvfs_netsim::link::{Link, LinkConfig};
use gvfs_netsim::transport::{ServerNode, SimRpcClient};
use gvfs_netsim::{ActorHandle, Sim};
use gvfs_nfs3::Fh3;
use gvfs_rpc::dispatch::{Dispatcher, RpcService};
use gvfs_rpc::stats::RpcStats;
use gvfs_server::{MountServer, Nfs3Server};
use gvfs_vfs::{Timestamp, Vfs};
use gvfs_workloads::postmark::PostmarkConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BLOCK: u64 = ContentPool::BLOCK as u64;

/// Kernel ops, numbered for the `client` spans.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    Open = 1,
    Read = 2,
    Write = 3,
    Create = 4,
    Remove = 5,
    Stat = 6,
    Unmount = 7,
}

/// One kernel client and the record of the ops it issued.
struct Kernel {
    client: NfsClient,
    traced: bool,
    log: OpLog,
}

impl Kernel {
    /// Issues one kernel op, timing it on both clocks. An NFS or
    /// transport error counts as a failed op.
    fn op<T>(
        &mut self,
        kind: OpKind,
        path: &str,
        f: impl FnOnce(&NfsClient) -> Result<T, ClientError>,
    ) -> Option<T> {
        let (v0, w0) = (gvfs_netsim::now(), Instant::now());
        let result = if self.traced {
            trace::span("client", kind as u32, || f(&self.client))
        } else {
            f(&self.client)
        };
        self.log.wall_ns.push(w0.elapsed().as_nanos() as u64);
        self.log.virtual_ns.push(gvfs_netsim::now().saturating_since(v0).as_nanos() as u64);
        self.log.attempted += 1;
        result.map_err(|e| self.log.fail(format!("{kind:?} {path}: {e}"))).ok()
    }

    /// Opens `path` and reads it block by block, checking every block
    /// against the shadow (`size` bytes of content `content`).
    fn read_whole(&mut self, pool: &ContentPool, path: &str, content: u64, size: u64) {
        let Some(fh) = self.op(OpKind::Open, path, |c| c.open(path)) else { return };
        let mut offset = 0;
        while offset < size {
            let Some(data) =
                self.op(OpKind::Read, path, |c| c.read(fh, offset, ContentPool::BLOCK as u32))
            else {
                return;
            };
            let want = BLOCK.min(size - offset) as usize;
            self.log.bytes_read += data.len() as u64;
            if data != pool.bytes(content, offset, want) {
                self.log.fail(format!("read {path} @{offset}: {} bytes differ from shadow", want));
                return;
            }
            offset += BLOCK;
        }
    }

    /// Writes bytes `from..to` of content `content` in 32 KiB blocks.
    fn write_range(
        &mut self,
        pool: &ContentPool,
        fh: Fh3,
        path: &str,
        content: u64,
        from: u64,
        to: u64,
    ) {
        let mut offset = from;
        while offset < to {
            let n = (BLOCK - offset % BLOCK).min(to - offset);
            let data = pool.bytes(content, offset, n as usize);
            if self.op(OpKind::Write, path, |c| c.write(fh, offset, &data)).is_none() {
                return;
            }
            self.log.bytes_written += n;
            offset += n;
        }
    }

    fn unmount(&mut self, handle: &SessionHandle) {
        self.op(OpKind::Unmount, "/", |_| {
            handle.shutdown();
            Ok(())
        });
    }
}

/// Checks the server tree after unmount: `expect` is the shadow content
/// of the file at `path`, or `None` when it must not exist.
fn check_tree_file(vfs: &Vfs, path: &str, expect: Option<Vec<u8>>, log: &mut OpLog) {
    match (vfs.lookup_path(path), expect) {
        (Ok(id), Some(want)) => match vfs.read(id, 0, want.len() as u32 + 1) {
            Ok((data, _)) if data == want => {}
            Ok((data, _)) => log.fail(format!(
                "tree {path}: {} bytes on the server, {} in the shadow or content differs",
                data.len(),
                want.len()
            )),
            Err(e) => log.fail(format!("tree {path}: {e:?}")),
        },
        (Err(_), None) => {}
        (Ok(_), None) => log.fail(format!("tree {path}: deleted file still exists")),
        (Err(e), Some(_)) => log.fail(format!("tree {path}: missing ({e:?})")),
    }
}

/// Wraps the session's three RPC services in timing decorators through
/// the public `ServerNode::set_dispatcher`. The new dispatchers carry
/// NFS and the GVFS protocol; the proxies' MOUNT forwarding is left out
/// because kernel clients here start from the root handle and never
/// call MOUNT.
fn install_timing(session: &Session, clients: usize) {
    for i in 0..clients {
        let proxy = Arc::clone(session.proxy_client(i)) as Arc<dyn RpcService>;
        let mut d = Dispatcher::new();
        d.register(Timed::new("proxy_client", proxy));
        session.client_transport(i).server().set_dispatcher(d);
    }
    let proxy_server = Arc::clone(session.proxy_server()) as Arc<dyn RpcService>;
    let mut d = Dispatcher::new();
    d.register(Timed::new("proxy_server", proxy_server));
    session.proxy_server_node().set_dispatcher(d);
    // The NFS server's only state is the vfs, the clock and its write
    // verifier (1), so a fresh one over the same vfs is the same server.
    let vfs = Arc::clone(session.vfs());
    let clock: gvfs_server::Clock =
        Arc::new(|| Timestamp::from_nanos(gvfs_netsim::now().as_nanos()));
    let mut d = Dispatcher::new();
    d.register(Timed::new("server", Arc::new(Nfs3Server::new(Arc::clone(&vfs), clock))));
    d.register(MountServer::new(vfs, EXPORT_PATH));
    session.nfs_node().set_dispatcher(d);
}

/// Samples the process's thread count until stopped.
struct ThreadSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<(u64, u64)>,
}

impl ThreadSampler {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(proc_status("Threads").unwrap_or(0));
                std::thread::sleep(Duration::from_millis(10));
            }
            (peak, thread_cpu_ns())
        });
        ThreadSampler { stop, thread }
    }

    /// Stops sampling; returns the peak thread count and the CPU time
    /// the sampler itself took, ns.
    fn finish(self) -> (u64, u64) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("thread sampler panicked")
    }
}

/// A simulated round ready to run.
struct Prepared {
    sim: Sim,
    session: Session,
    traced: bool,
    clients: usize,
    started: Instant,
    /// One loopback stats handle per kernel client.
    loopback: Vec<RpcStats>,
    /// Filled by the driving actors.
    logs: Arc<Mutex<OpLog>>,
    /// Virtual time the last driving actor finished, ns.
    end_virtual: Arc<Mutex<u64>>,
}

impl Prepared {
    /// Establishes the session over `vfs` (seeded by the caller after
    /// `started`) and wraps its layers when `traced`.
    fn establish(
        config: SessionConfig,
        clients: usize,
        wan: LinkConfig,
        vfs: Arc<Vfs>,
        traced: bool,
        started: Instant,
    ) -> Self {
        let sim = Sim::new();
        let session = Session::builder(config).clients(clients).wan(wan).vfs(vfs).establish(&sim);
        if traced {
            install_timing(&session, clients);
        }
        Prepared {
            sim,
            session,
            traced,
            clients,
            started,
            loopback: Vec::new(),
            logs: Arc::default(),
            end_virtual: Arc::default(),
        }
    }

    /// A kernel client on machine `i`, counting its loopback RPCs.
    fn kernel(&mut self, i: usize, opts: MountOptions) -> Kernel {
        let transport = self.session.client_transport(i);
        self.loopback.push(transport.stats().clone());
        let client = NfsClient::new(transport, self.session.root_fh(), opts);
        Kernel { client, traced: self.traced, log: OpLog::default() }
    }

    /// Hands a finished kernel's record back to the round.
    fn finish_kernel(logs: &Mutex<OpLog>, end_virtual: &Mutex<u64>, kernel: Kernel) {
        logs.lock().expect("op log poisoned").merge(kernel.log);
        let mut end = end_virtual.lock().expect("end time poisoned");
        *end = (*end).max(gvfs_netsim::now().as_nanos());
    }

    /// Runs the simulation; `check` then inspects the server tree.
    fn run(self, check: impl FnOnce(&Vfs, &mut OpLog)) -> Round {
        let setup_s = self.started.elapsed().as_secs_f64();
        let sampler = self.traced.then(ThreadSampler::start);
        let (cpu0, w0) = (process_cpu_ns(), Instant::now());
        self.sim.run();
        let run_s = w0.elapsed().as_secs_f64();
        let cpu_ns = process_cpu_ns() - cpu0;
        // The sampler's own CPU time is the benchmark's, not the program's.
        let (peak_threads, sampler_ns) = sampler.map_or((0, 0), ThreadSampler::finish);
        let cpu_s = cpu_ns.saturating_sub(sampler_ns) as f64 / 1e9;

        let session = self.session;
        let mut ops = std::mem::take(&mut *self.logs.lock().expect("op log poisoned"));
        check(session.vfs(), &mut ops);
        let wan = session.wan_stats().snapshot();
        let modelled = Modelled {
            virtual_ns: *self.end_virtual.lock().expect("end time poisoned"),
            wan_rpcs: wan.total_calls(),
            wan_bytes: wan.total_bytes(),
        };
        let mut round = Round {
            traced: self.traced,
            setup_s,
            run_s,
            cpu_s,
            modelled: Some(modelled),
            ..Round::default()
        };
        if self.traced {
            round.spans = trace::take_spans();
            round.layers =
                layers(&session, self.clients, &self.loopback, &round, &ops, peak_threads);
        }
        round.ops = ops;
        release(&session, self.clients);
        round
    }
}

/// Lets a finished session be freed. The proxies and the nodes that
/// serve them hold each other (server -> callback node -> client -> WAN
/// node -> server, and client -> peer's callback node -> peer ->
/// client), so without this every round's session would stay in memory.
fn release(session: &Session, clients: usize) {
    let nowhere = || {
        let node = ServerNode::new("released", Dispatcher::new(), Duration::ZERO);
        SimRpcClient::new(Link::new(LinkConfig::loopback()).forward(), node, RpcStats::new())
    };
    for i in 0..clients {
        session.client_transport(i).server().set_dispatcher(Dispatcher::new());
        session.proxy_server().register_callback(i as u32 + 1, nowhere());
        for j in (0..clients).filter(|&j| j != i) {
            session.proxy_client(i).add_peer(j as u32 + 1, nowhere());
        }
    }
    session.proxy_server_node().set_dispatcher(Dispatcher::new());
    session.nfs_node().set_dispatcher(Dispatcher::new());
}

/// The per-layer metrics of a traced simulated round.
fn layers(
    session: &Session,
    clients: usize,
    loopback: &[RpcStats],
    round: &Round,
    ops: &OpLog,
    peak_threads: u64,
) -> Vec<(&'static str, f64)> {
    let t = trace::layer_totals(&round.spans);
    let get = |layer: &str| t.get(layer).copied().unwrap_or_default();
    let (client, pc, ps, server) =
        (get("client"), get("proxy_client"), get("proxy_server"), get("server"));
    let per = |ns: u64, n: u64| ratio(ns as f64 / 1e3, n as f64);

    let mut p = gvfs_core::proxy::client::ProxyClientStats::default();
    let mut disk = gvfs_netsim::disk::DiskStats::default();
    for i in 0..clients {
        let s = session.proxy_client(i).stats();
        p.served_local += s.served_local;
        p.read_hits += s.read_hits;
        p.read_misses += s.read_misses;
        p.prefetch_issued += s.prefetch_issued;
        p.prefetch_hits += s.prefetch_hits;
        p.peer_hits += s.peer_hits;
        p.peer_fallbacks += s.peer_fallbacks;
        p.cache_evictions += s.cache_evictions;
        p.dedup_hits += s.dedup_hits;
        p.integrity_failures += s.integrity_failures;
        if let Some(d) = session.client_disk(i) {
            let d = d.stats();
            disk.bytes_written += d.bytes_written;
            disk.bytes_read += d.bytes_read;
            disk.syncs += d.syncs;
        }
    }
    let scale = session.proxy_server().scale_stats();
    let wan = session.wan_stats().snapshot();
    let wan_latency: u64 = wan.iter().map(|(_, c)| c.latency_nanos).sum();
    let loopback_rpcs: u64 = loopback.iter().map(|s| s.snapshot().total_calls()).sum();
    let f = |n: u64| n as f64;
    vec![
        ("client.rpcs_per_op", ratio(f(loopback_rpcs), f(ops.attempted))),
        ("client.self_cpu_us_per_op", per(client.self_cpu_ns, client.calls)),
        ("proxy_client.calls", f(pc.calls)),
        ("proxy_client.self_cpu_us_per_call", per(pc.self_cpu_ns, pc.calls)),
        ("proxy_client.self_wall_us_per_call", per(pc.self_wall_ns, pc.calls)),
        ("proxy_client.virtual_us_per_call", per(pc.virtual_ns, pc.calls)),
        ("proxy_client.local_ratio", ratio(f(p.served_local), f(pc.calls))),
        ("proxy_client.read_hit_ratio", ratio(f(p.read_hits), f(p.read_hits + p.read_misses))),
        ("proxy_client.prefetch_useful_ratio", ratio(f(p.prefetch_hits), f(p.prefetch_issued))),
        ("proxy_client.peer_hit_ratio", ratio(f(p.peer_hits), f(p.peer_hits + p.peer_fallbacks))),
        ("proxy_server.calls", f(ps.calls)),
        ("proxy_server.self_cpu_us_per_call", per(ps.self_cpu_ns, ps.calls)),
        ("proxy_server.getinv_calls", f(scale.inval.getinv_replies)),
        ("proxy_server.callbacks", f(scale.recalls_sent)),
        (
            "proxy_server.inval_lock_contended_ratio",
            ratio(f(scale.inval.lock_contended), f(scale.inval.lock_acquisitions)),
        ),
        ("server.calls", f(server.calls)),
        ("server.cpu_us_per_call", per(server.cpu_ns, server.calls)),
        ("server.wall_us_per_call", per(server.wall_ns, server.calls)),
        ("store.disk_write_amp", ratio(f(disk.bytes_written), f(ops.bytes_written))),
        ("store.disk_read_per_read_byte", ratio(f(disk.bytes_read), f(ops.bytes_read))),
        ("store.syncs", f(disk.syncs)),
        ("store.evictions", f(p.cache_evictions)),
        ("store.dedup_hits", f(p.dedup_hits)),
        ("store.integrity_failures", f(p.integrity_failures)),
        ("netsim.peak_threads", f(peak_threads)),
        ("netsim.wan_max_in_flight", f(wan.max_in_flight())),
        (
            "netsim.unattributed_cpu_s",
            (round.cpu_s - trace::root_cpu_ns(&round.spans) as f64 / 1e9).max(0.0),
        ),
        ("netsim.wan_virtual_ms_per_rpc", ratio(wan_latency as f64 / 1e6, f(wan.total_calls()))),
    ]
}

/// A file of a generated tree.
#[derive(Debug, Clone)]
struct FileSpec {
    dir: usize,
    name: String,
    /// Content id in the [`ContentPool`].
    content: u64,
    size: u64,
}

impl FileSpec {
    fn path(&self, top: &str) -> String {
        format!("/{top}/d{:03}/{}", self.dir, self.name)
    }
}

/// Creates `/top/d000 ..` in `vfs`; returns the directories' handles.
fn seed_dirs(vfs: &Vfs, top: &str, dirs: usize) -> Vec<Fh3> {
    let t = Timestamp::from_nanos(0);
    let base = vfs.mkdir(vfs.root(), top, 0o755, t).expect("seed top directory");
    (0..dirs)
        .map(|d| {
            let id = vfs.mkdir(base, &format!("d{d:03}"), 0o755, t).expect("seed directory");
            Fh3::from_fileid(id.as_u64())
        })
        .collect()
}

/// Sizes of `smallfile_churn`.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Subdirectories the files spread over.
    pub subdirs: usize,
    /// Files seeded on the server before the run.
    pub files: usize,
    /// PostMark transactions.
    pub transactions: usize,
    /// Smallest file, bytes.
    pub min_size: u64,
    /// Largest file, bytes.
    pub max_size: u64,
}

/// `smallfile_churn` divides the paper's PostMark file sizes by this, so
/// that a 40 s run holds some twenty rounds to average over.
pub const CHURN_SIZE_SCALE: usize = 8;

impl ChurnConfig {
    /// The paper's PostMark settings (`PostmarkConfig::default`, the
    /// Figure 5 inset), with file sizes divided by [`CHURN_SIZE_SCALE`].
    pub fn full() -> Self {
        let pm = PostmarkConfig::default();
        assert_eq!(pm.block, ContentPool::BLOCK, "PostMark's block is the benchmark's");
        ChurnConfig {
            subdirs: pm.subdirs,
            files: pm.files,
            transactions: pm.transactions,
            min_size: (pm.min_size / CHURN_SIZE_SCALE) as u64,
            max_size: (pm.max_size / CHURN_SIZE_SCALE) as u64,
        }
    }

    /// A size for tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        ChurnConfig { subdirs: 4, files: 16, transactions: 40, min_size: 1024, max_size: 96 * 1024 }
    }
}

#[derive(Debug, Clone, Copy)]
enum ChurnOp {
    Create(usize),
    Read(usize),
    Append(usize, u64),
    Delete(usize),
    Stat(usize),
}

/// `smallfile_churn`: one kernel client under the delegation model with
/// write-back, over a 40 ms RTT WAN, with a persistent proxy store
/// (scrub on) smaller than the live data. PostMark transactions over a
/// pool of files seeded on the server, then unmount. The pool is seeded
/// on the server, not created through the client as in PostMark,
/// because write-back would keep all of it dirty and the cache could
/// then not be smaller than the live data (see `cache_bytes`).
#[derive(Debug)]
pub struct SmallfileChurn {
    cfg: ChurnConfig,
    /// The seeded pool, then every file the transactions create.
    files: Vec<FileSpec>,
    script: Vec<ChurnOp>,
    /// The proxy's cache capacity: above the most dirty (written, not
    /// yet written back) data the script ever holds, below the live
    /// data. Write-back keeps dirty data until unmount, and the stores
    /// cannot evict it, so a capacity below the dirty data would leave
    /// nothing to evict.
    cache_bytes: usize,
    pool: Arc<ContentPool>,
}

impl SmallfileChurn {
    /// Generates the pool and the transaction script for `seed`. The
    /// seed orders a fixed multiset of file sizes and of transaction
    /// kinds and picks their targets, so every seed does about the same
    /// amount of work. The kinds follow PostMark's read and create
    /// biases (reads and creates per 10 transactions).
    pub fn new(seed: u64, cfg: ChurnConfig) -> Self {
        let pm = PostmarkConfig::default();
        let (read_bias, create_bias) = (pm.read_bias as usize, pm.create_bias as usize);
        let mut rng = Rng::new(seed, 1);
        let creates = cfg.transactions * create_bias / 10;
        let spread = |rng: &mut Rng, n: usize| -> Vec<u64> {
            let step = (cfg.max_size - cfg.min_size) / (n as u64 - 1).max(1);
            rng.permutation(n).into_iter().map(|k| cfg.min_size + k as u64 * step).collect()
        };
        let mut sizes = spread(&mut rng, cfg.files);
        sizes.extend(spread(&mut rng, creates));
        let files: Vec<FileSpec> = sizes
            .into_iter()
            .enumerate()
            .map(|(id, size)| FileSpec {
                dir: rng.below(cfg.subdirs),
                name: format!("f{id:06}"),
                content: if id % 5 == 0 {
                    id as u64 % ContentPool::SHARED_IDS
                } else {
                    ContentPool::SHARED_IDS + id as u64
                },
                size,
            })
            .collect();
        let reads: Vec<bool> =
            rng.permutation(cfg.transactions).into_iter().map(|k| k % 10 < read_bias).collect();
        let creating: Vec<bool> =
            rng.permutation(cfg.transactions).into_iter().map(|k| k < creates).collect();
        let mut live: Vec<usize> = (0..cfg.files).collect();
        let mut next_file = cfg.files;
        // Live and dirty bytes per file, to size the cache.
        let mut size: Vec<u64> = files.iter().map(|f| f.size).collect();
        let mut dirty = vec![0u64; files.len()];
        let (mut live_bytes, mut dirty_bytes) = (size[..cfg.files].iter().sum::<u64>(), 0u64);
        let (mut min_live, mut max_dirty) = (live_bytes, 0u64);
        let mut script = Vec::new();
        for (t, (&read, &create)) in reads.iter().zip(&creating).enumerate() {
            let target = live[rng.below(live.len())];
            if read {
                script.push(ChurnOp::Read(target));
            } else {
                let len = rng.range(512, BLOCK + 1);
                script.push(ChurnOp::Append(target, len));
                size[target] += len;
                dirty[target] += len;
                (live_bytes, dirty_bytes) = (live_bytes + len, dirty_bytes + len);
            }
            if create && next_file < files.len() {
                let id = next_file;
                next_file += 1;
                script.push(ChurnOp::Create(id));
                live.push(id);
                dirty[id] = size[id];
                (live_bytes, dirty_bytes) = (live_bytes + size[id], dirty_bytes + size[id]);
            } else if live.len() > 1 {
                let victim = live.swap_remove(rng.below(live.len()));
                script.push(ChurnOp::Delete(victim));
                (live_bytes, dirty_bytes) =
                    (live_bytes - size[victim], dirty_bytes - dirty[victim]);
            }
            if t % 2 == 0 {
                script.push(ChurnOp::Stat(live[rng.below(live.len())]));
            }
            min_live = min_live.min(live_bytes);
            max_dirty = max_dirty.max(dirty_bytes);
        }
        // Halfway between the two, so clean data is evicted all run long.
        let cache_bytes = ((max_dirty + min_live.max(max_dirty)) / 2) as usize;
        SmallfileChurn { cfg, files, script, cache_bytes, pool: Arc::new(ContentPool::new(seed)) }
    }

    /// One round: seed the pool, establish, run the script, unmount,
    /// check the tree.
    pub fn round(&self, traced: bool) -> Round {
        let started = Instant::now();
        let vfs = Arc::new(Vfs::new());
        let dirs = seed_dirs(&vfs, "pm", self.cfg.subdirs);
        let t = Timestamp::from_nanos(0);
        for f in &self.files[..self.cfg.files] {
            let dir = gvfs_vfs::FileId::from_u64(dirs[f.dir].fileid());
            let id = vfs.create(dir, &f.name, 0o644, t).expect("seed file");
            vfs.write(id, 0, &self.pool.bytes(f.content, 0, f.size as usize), t)
                .expect("seed file content");
        }
        let config = SessionConfig {
            model: ConsistencyModel::delegation(),
            write_back: true,
            persistent_store: true,
            scrub_period: Some(Duration::from_secs(30)),
            disk_cache_bytes: self.cache_bytes,
            ..SessionConfig::default()
        };
        let wan = LinkConfig::wan().with_rtt(Duration::from_millis(40));
        let mut prep = Prepared::establish(config, 1, wan, vfs, traced, started);
        // A kernel page cache smaller than the pool, so re-reads reach
        // the proxy's store.
        let opts = MountOptions { page_cache_bytes: 4 << 20, ..MountOptions::noac() };
        let mut kernel = prep.kernel(0, opts);
        let handle = prep.session.handle();
        let (logs, end) = (Arc::clone(&prep.logs), Arc::clone(&prep.end_virtual));
        let (files, script, pool) =
            (self.files.clone(), self.script.clone(), Arc::clone(&self.pool));
        let mut size: Vec<u64> = files.iter().map(|f| f.size).collect();
        size[self.cfg.files..].fill(0);
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let final_sizes = Arc::clone(&sizes);
        prep.sim.spawn("smallfile_churn", move || {
            for op in script {
                let f = &files[op_file(op)];
                let path = f.path("pm");
                match op {
                    ChurnOp::Create(i) => {
                        let Some(fh) = kernel
                            .op(OpKind::Create, &path, |c| c.create(dirs[f.dir], &f.name, true))
                        else {
                            continue;
                        };
                        kernel.write_range(&pool, fh, &path, f.content, 0, f.size);
                        size[i] = f.size;
                    }
                    ChurnOp::Read(i) => kernel.read_whole(&pool, &path, f.content, size[i]),
                    ChurnOp::Append(i, len) => {
                        if let Some(fh) = kernel.op(OpKind::Open, &path, |c| c.open(&path)) {
                            kernel.write_range(&pool, fh, &path, f.content, size[i], size[i] + len);
                        }
                        size[i] += len;
                    }
                    ChurnOp::Delete(i) => {
                        kernel.op(OpKind::Remove, &path, |c| c.remove(dirs[f.dir], &f.name));
                        size[i] = u64::MAX;
                    }
                    ChurnOp::Stat(i) => {
                        let Some(attr) = kernel.op(OpKind::Stat, &path, |c| c.stat(&path)) else {
                            continue;
                        };
                        if attr.size != size[i] {
                            kernel.log.fail(format!(
                                "stat {path}: size {} but the shadow has {}",
                                attr.size, size[i]
                            ));
                        }
                    }
                }
            }
            kernel.unmount(&handle);
            *final_sizes.lock().expect("sizes poisoned") = size;
            Prepared::finish_kernel(&logs, &end, kernel);
        });
        let (files, pool) = (&self.files, &self.pool);
        prep.run(|vfs, log| {
            let sizes = sizes.lock().expect("sizes poisoned");
            for (f, &size) in files.iter().zip(sizes.iter()) {
                let expect = (size != u64::MAX).then(|| pool.bytes(f.content, 0, size as usize));
                check_tree_file(vfs, &f.path("pm"), expect, log);
            }
        })
    }
}

fn op_file(op: ChurnOp) -> usize {
    match op {
        ChurnOp::Create(i)
        | ChurnOp::Read(i)
        | ChurnOp::Append(i, _)
        | ChurnOp::Delete(i)
        | ChurnOp::Stat(i) => i,
    }
}

/// Sizes of `shared_fanin`.
#[derive(Debug, Clone, Copy)]
pub struct FaninConfig {
    /// Kernel clients, one per client machine.
    pub clients: usize,
    /// Directories of the seeded tree.
    pub dirs: usize,
    /// Files of the seeded tree.
    pub files: usize,
    /// Smallest file, bytes.
    pub min_size: u64,
    /// Largest file, bytes.
    pub max_size: u64,
    /// Share of the files the writer rewrites, percent.
    pub rewrite_percent: u64,
}

impl FaninConfig {
    /// The benchmark's size.
    pub fn full() -> Self {
        FaninConfig {
            clients: 24,
            dirs: 4,
            files: 12,
            min_size: 16 * 1024,
            max_size: 128 * 1024,
            rewrite_percent: 25,
        }
    }

    /// A size for tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        FaninConfig {
            clients: 3,
            dirs: 2,
            files: 6,
            min_size: 1024,
            max_size: 80 * 1024,
            rewrite_percent: 50,
        }
    }
}

/// Polling period of `shared_fanin`.
const FANIN_PERIOD: Duration = Duration::from_secs(5);
/// WAN round trip of `shared_fanin`.
const FANIN_RTT: Duration = Duration::from_millis(200);
/// Start offset between consecutive clients' cold reads.
const FANIN_STAGGER: Duration = Duration::from_millis(50);

/// A barrier for simulation actors.
struct ActorBarrier {
    n: usize,
    state: Mutex<(usize, u64, Vec<ActorHandle>)>,
}

impl ActorBarrier {
    fn new(n: usize) -> Self {
        ActorBarrier { n, state: Mutex::new((0, 0, Vec::new())) }
    }

    fn wait(&self) {
        let generation = {
            let mut st = self.state.lock().expect("barrier poisoned");
            st.0 += 1;
            if st.0 == self.n {
                st.0 = 0;
                st.1 += 1;
                for waiter in st.2.drain(..) {
                    waiter.unpark();
                }
                return;
            }
            st.2.push(gvfs_netsim::current_actor());
            st.1
        };
        // A park may also end on an unpark banked by the proxies, so the
        // generation decides.
        while self.state.lock().expect("barrier poisoned").1 == generation {
            gvfs_netsim::park();
        }
    }
}

/// `shared_fanin`: a few dozen kernel clients under invalidation
/// polling, with the peer mesh and read-ahead on, over a 200 ms RTT WAN
/// and the in-memory proxy store. Waves: all clients cold-read the
/// seeded tree (staggered); client 0 rewrites a subset; one polling
/// period later every client re-reads the tree. Each read has exactly
/// one legal answer.
#[derive(Debug)]
pub struct SharedFanin {
    cfg: FaninConfig,
    files: Vec<FileSpec>,
    /// Content id after the rewrite wave (equal to the original when the
    /// file is not rewritten).
    rewritten: Vec<u64>,
    /// Each client's read order, per read wave.
    orders: Vec<[Vec<usize>; 2]>,
    pool: Arc<ContentPool>,
}

impl SharedFanin {
    /// Generates the tree and every client's read order for `seed`.
    pub fn new(seed: u64, cfg: FaninConfig) -> Self {
        // The seed picks names' sizes, the rewritten files, contents and
        // read orders; the multiset of sizes and the number of rewrites
        // are fixed, so every seed does the same amount of work.
        let mut rng = Rng::new(seed, 2);
        let step = (cfg.max_size - cfg.min_size) / (cfg.files as u64 - 1).max(1);
        let sizes: Vec<u64> =
            rng.permutation(cfg.files).iter().map(|&k| cfg.min_size + k as u64 * step).collect();
        let files: Vec<FileSpec> = (0..cfg.files)
            .map(|i| FileSpec {
                dir: i % cfg.dirs,
                name: format!("f{i:04}"),
                content: ContentPool::SHARED_IDS + i as u64,
                size: sizes[i],
            })
            .collect();
        let rewrites = cfg.files * cfg.rewrite_percent as usize / 100;
        let mut rewritten: Vec<u64> = files.iter().map(|f| f.content).collect();
        for &k in &rng.permutation(cfg.files)[..rewrites] {
            rewritten[k] = ContentPool::SHARED_IDS + (cfg.files + k) as u64;
        }
        let orders = (0..cfg.clients)
            .map(|_| [rng.permutation(cfg.files), rng.permutation(cfg.files)])
            .collect();
        SharedFanin { cfg, files, rewritten, orders, pool: Arc::new(ContentPool::new(seed)) }
    }

    /// One round: seed the tree, establish, run the waves, check.
    pub fn round(&self, traced: bool) -> Round {
        let started = Instant::now();
        let vfs = Arc::new(Vfs::new());
        let dirs = seed_dirs(&vfs, "tree", self.cfg.dirs);
        let t = Timestamp::from_nanos(0);
        for f in &self.files {
            let dir = gvfs_vfs::FileId::from_u64(dirs[f.dir].fileid());
            let id = vfs.create(dir, &f.name, 0o644, t).expect("seed file");
            vfs.write(id, 0, &self.pool.bytes(f.content, 0, f.size as usize), t)
                .expect("seed file content");
        }
        let config = SessionConfig {
            model: ConsistencyModel::InvalidationPolling {
                period: FANIN_PERIOD,
                backoff_max: None,
            },
            peer_read: true,
            ..SessionConfig::default()
        };
        let wan = LinkConfig::wan().with_rtt(FANIN_RTT);
        let clients = self.cfg.clients;
        let mut prep = Prepared::establish(config, clients, wan, vfs, traced, started);
        let barrier = Arc::new(ActorBarrier::new(clients));
        let handle = prep.session.handle();
        for i in 0..clients {
            let mut kernel = prep.kernel(i, MountOptions::default());
            let (logs, end) = (Arc::clone(&prep.logs), Arc::clone(&prep.end_virtual));
            let (barrier, handle) = (Arc::clone(&barrier), handle.clone());
            let (files, rewritten, pool) =
                (self.files.clone(), self.rewritten.clone(), Arc::clone(&self.pool));
            let [first, second] = self.orders[i].clone();
            prep.sim.spawn(&format!("fanin-{i}"), move || {
                gvfs_netsim::sleep(FANIN_STAGGER * i as u32);
                for &k in &first {
                    let f = &files[k];
                    kernel.read_whole(&pool, &f.path("tree"), f.content, f.size);
                }
                barrier.wait();
                if i == 0 {
                    for (k, f) in
                        files.iter().enumerate().filter(|&(k, f)| rewritten[k] != f.content)
                    {
                        let path = f.path("tree");
                        if let Some(fh) = kernel.op(OpKind::Open, &path, |c| c.open(&path)) {
                            kernel.write_range(&pool, fh, &path, rewritten[k], 0, f.size);
                        }
                    }
                }
                barrier.wait();
                // One polling period, plus a round trip for a poll in
                // flight and one for the next, makes every rewrite visible.
                gvfs_netsim::sleep(FANIN_PERIOD + 2 * FANIN_RTT + Duration::from_secs(1));
                for &k in &second {
                    let f = &files[k];
                    kernel.read_whole(&pool, &f.path("tree"), rewritten[k], f.size);
                }
                barrier.wait();
                if i == 0 {
                    kernel.unmount(&handle);
                }
                Prepared::finish_kernel(&logs, &end, kernel);
            });
        }
        let (files, rewritten, pool) = (&self.files, &self.rewritten, &self.pool);
        prep.run(|vfs, log| {
            for (f, &content) in files.iter().zip(rewritten.iter()) {
                check_tree_file(
                    vfs,
                    &f.path("tree"),
                    Some(pool.bytes(content, 0, f.size as usize)),
                    log,
                );
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_clean(round: &Round) {
        assert_eq!(round.ops.failed, 0, "failures: {:?}", round.ops.failures);
        assert!(round.ops.attempted > 10);
    }

    #[test]
    fn smallfile_churn_tiny_is_correct_deterministic_and_traceable() {
        let _guard = crate::TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let w = SmallfileChurn::new(11, ChurnConfig::tiny());
        let a = w.round(false);
        let b = w.round(false);
        let traced = w.round(true);
        for r in [&a, &b, &traced] {
            assert_clean(r);
        }
        assert_eq!(a.modelled, b.modelled);
        assert_eq!(a.modelled, traced.modelled, "tracing changed the modelled run");
        let layer = |name: &str| traced.layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        assert!(layer("proxy_client.calls").is_some_and(|v| v > 0.0));
        assert!(layer("store.evictions").is_some_and(|v| v > 0.0), "the cache must evict");
        assert_eq!(layer("store.integrity_failures"), Some(0.0));
        let other = SmallfileChurn::new(12, ChurnConfig::tiny()).round(false);
        assert_clean(&other);
        assert_ne!(other.modelled, a.modelled);
    }

    #[test]
    fn shared_fanin_tiny_is_correct_deterministic_and_traceable() {
        let _guard = crate::TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let w = SharedFanin::new(5, FaninConfig::tiny());
        let a = w.round(false);
        let traced = w.round(true);
        assert_clean(&a);
        assert_clean(&traced);
        assert_eq!(a.modelled, traced.modelled, "tracing changed the modelled run");
        assert_eq!(a.modelled, w.round(false).modelled);
        assert_clean(&SharedFanin::new(6, FaninConfig::tiny()).round(false));
    }
}
