//! `tcp_nfs`: the NFS server on a localhost `TcpRpcServer`, driven
//! closed loop by raw NFS RPCs over one `TcpRpcClient` connection.

use crate::measure::{process_cpu_ns, ContentPool, Rng};
use crate::round::{ratio, OpLog, Round};
use crate::trace::{self, Timed};
use gvfs_nfs3::{
    proc3, CreateArgs, CreateHow, DirOpArgs, DirOpRes, Fh3, Ftype3, GetattrArgs, GetattrRes,
    LookupArgs, LookupRes, NewObjRes, Nfsstat3, ReadArgs, ReadRes, Sattr3, StableHow, WriteArgs,
    WriteRes, NFS_PROGRAM, NFS_V3,
};
use gvfs_rpc::dispatch::{Dispatcher, RpcService};
use gvfs_rpc::message::OpaqueAuth;
use gvfs_rpc::tcp::{TcpRpcClient, TcpRpcServer};
use gvfs_server::{MountServer, Nfs3Server};
use gvfs_vfs::{FileId, Timestamp, Vfs};
use gvfs_xdr::Xdr;
use std::sync::Arc;
use std::time::Instant;

const BLOCK: u64 = ContentPool::BLOCK as u64;

/// Sizes of `tcp_nfs`.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Directories of the pre-populated tree.
    pub dirs: usize,
    /// Files of the pre-populated tree.
    pub files: usize,
    /// Smallest file, bytes.
    pub min_size: u64,
    /// Largest file, bytes; writes never grow a file past it.
    pub max_size: u64,
    /// Ops per round.
    pub ops: usize,
}

impl TcpConfig {
    /// The benchmark's size.
    pub fn full() -> Self {
        TcpConfig { dirs: 8, files: 128, min_size: 8 * 1024, max_size: 160 * 1024, ops: 8000 }
    }

    /// A size for tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        TcpConfig { dirs: 2, files: 8, min_size: 1024, max_size: 96 * 1024, ops: 400 }
    }
}

#[derive(Debug, Clone, Copy)]
enum TcpOp {
    Getattr(usize),
    Lookup(usize),
    Read(usize, u64),
    /// File, offset, length, content id of the written bytes.
    Write(usize, u64, u64, u64),
    Create(usize),
    Remove(usize),
}

/// The op mix, per mille: the shares of the NFS calls the server
/// receives in a `smallfile_churn` round (seed 1; see README.md).
const MIX: [(u32, u64); 6] = [
    (proc3::GETATTR, 132),
    (proc3::LOOKUP, 273),
    (proc3::READ, 185),
    (proc3::WRITE, 198),
    (proc3::CREATE, 106),
    (proc3::REMOVE, 106),
];

/// A file of the tree. Only this workload's connection touches the
/// tree, so every reply has exactly one legal answer.
#[derive(Debug, Clone)]
struct TcpFile {
    dir: String,
    name: String,
    /// Initial content id; `None` for files the run creates.
    seeded: Option<u64>,
    size: u64,
}

/// XDR time spent by the benchmark's own encode and decode calls.
#[derive(Debug, Default, Clone, Copy)]
struct XdrTimes {
    encode_ns: u64,
    encode_bytes: u64,
    decode_ns: u64,
    decode_bytes: u64,
}

/// The tree's directory handles by name and the handles of its seeded
/// files.
type SeededTree = (Vec<(String, Fh3)>, Vec<Option<Fh3>>);

/// The `tcp_nfs` workload.
#[derive(Debug)]
pub struct TcpNfs {
    cfg: TcpConfig,
    /// The seeded files, then every file the script creates.
    files: Vec<TcpFile>,
    script: Vec<TcpOp>,
    pool: Arc<ContentPool>,
}

impl TcpNfs {
    /// Generates the tree and the op script for `seed`.
    pub fn new(seed: u64, cfg: TcpConfig) -> Self {
        let mut rng = Rng::new(seed, 3);
        let mut files: Vec<TcpFile> = (0..cfg.files)
            .map(|i| TcpFile {
                dir: format!("d{:02}", i % cfg.dirs),
                name: format!("f{i:04}"),
                seeded: Some(ContentPool::SHARED_IDS + i as u64),
                size: rng.range(cfg.min_size, cfg.max_size + 1),
            })
            .collect();
        let mut sizes: Vec<u64> = files.iter().map(|f| f.size).collect();
        let mut live: Vec<usize> = (0..cfg.files).collect();
        let mut next_content = ContentPool::SHARED_IDS + cfg.files as u64;
        let mut script = Vec::with_capacity(cfg.ops);
        for _ in 0..cfg.ops {
            let at = rng.below(live.len());
            let k = live[at];
            let roll = rng.range(0, 1000);
            let procedure = MIX
                .iter()
                .scan(0, |upto, &(p, share)| {
                    *upto += share;
                    Some((p, *upto))
                })
                .find(|&(_, upto)| roll < upto)
                .map_or(proc3::GETATTR, |(p, _)| p);
            script.push(match procedure {
                proc3::LOOKUP => TcpOp::Lookup(k),
                proc3::READ => TcpOp::Read(k, rng.range(0, sizes[k] / BLOCK + 1) * BLOCK),
                proc3::WRITE => {
                    let offset = rng.range(0, sizes[k].min(cfg.max_size - 1) / BLOCK + 1) * BLOCK;
                    let len = BLOCK.min(cfg.max_size - offset);
                    sizes[k] = sizes[k].max(offset + len);
                    next_content += 1;
                    TcpOp::Write(k, offset, len, next_content)
                }
                proc3::REMOVE if live.len() > 1 => TcpOp::Remove(live.swap_remove(at)),
                proc3::CREATE | proc3::REMOVE => {
                    let name = format!("c{:05}", files.len());
                    files.push(TcpFile { dir: "new".into(), name, seeded: None, size: 0 });
                    sizes.push(0);
                    live.push(files.len() - 1);
                    TcpOp::Create(files.len() - 1)
                }
                _ => TcpOp::Getattr(k),
            });
        }
        TcpNfs { cfg, files, script, pool: Arc::new(ContentPool::new(seed)) }
    }

    /// Builds the server tree; returns its handles.
    fn seed(&self, vfs: &Vfs) -> SeededTree {
        let t = Timestamp::from_nanos(0);
        let top = vfs.mkdir(vfs.root(), "t", 0o755, t).expect("seed top directory");
        let dirs: Vec<(String, FileId)> = (0..self.cfg.dirs)
            .map(|d| format!("d{d:02}"))
            .chain(["new".to_string()])
            .map(|name| {
                let id = vfs.mkdir(top, &name, 0o755, t).expect("seed directory");
                (name, id)
            })
            .collect();
        let fh = |id: FileId| Fh3::from_fileid(id.as_u64());
        let handles = self
            .files
            .iter()
            .map(|f| {
                let content = f.seeded?;
                let dir = dirs.iter().find(|(n, _)| *n == f.dir).expect("seeded dir").1;
                let id = vfs.create(dir, &f.name, 0o644, t).expect("seed file");
                let data = self.pool.bytes(content, 0, f.size as usize);
                vfs.write(id, 0, &data, t).expect("seed file content");
                Some(fh(id))
            })
            .collect();
        (dirs.into_iter().map(|(n, id)| (n, fh(id))).collect(), handles)
    }

    /// One round: populate and serve the tree, connect, run the script,
    /// disconnect, check the tree.
    pub fn round(&self, traced: bool) -> Round {
        let started = Instant::now();
        let vfs = Arc::new(Vfs::new());
        let seeded = self.seed(&vfs);
        let epoch = Instant::now();
        let clock: gvfs_server::Clock =
            Arc::new(move || Timestamp::from_nanos(epoch.elapsed().as_nanos() as u64));
        let nfs: Arc<dyn RpcService> = Arc::new(Nfs3Server::new(Arc::clone(&vfs), clock));
        let mut dispatcher = Dispatcher::new();
        dispatcher.register_arc(if traced { Arc::new(Timed::new("server", nfs)) } else { nfs });
        dispatcher.register(MountServer::new(Arc::clone(&vfs), gvfs_core::session::EXPORT_PATH));
        let server = TcpRpcServer::bind("127.0.0.1:0", dispatcher).expect("bind localhost");
        let addr = server.local_addr();
        let handle = server.spawn();
        let rpc = TcpRpcClient::connect(addr).expect("connect to localhost");
        let setup_s = started.elapsed().as_secs_f64();

        let (cpu0, w0) = (process_cpu_ns(), Instant::now());
        let mut conn = Conn::new(&rpc, traced, &self.pool, &self.files, &seeded);
        conn.run(&self.script);
        let run_s = w0.elapsed().as_secs_f64();
        let cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;
        let Conn { mut log, fh, shadow, xdr, .. } = conn;
        let timeouts = rpc.stats().snapshot().transport_timeouts();
        drop(rpc);
        handle.shutdown();

        // A file the connection holds no handle for must not exist.
        for ((f, want), fh) in self.files.iter().zip(shadow).zip(fh) {
            let path = format!("/t/{}/{}", f.dir, f.name);
            let got = vfs.lookup_path(&path).and_then(|id| vfs.read(id, 0, want.len() as u32 + 1));
            match (got, fh) {
                (Ok((data, _)), Some(_)) if data == want => {}
                (Err(_), None) => {}
                (Ok(_), Some(_)) => {
                    log.fail(format!("tree {path}: content differs from the shadow"))
                }
                (Ok(_), None) => log.fail(format!("tree {path}: removed file still exists")),
                (Err(e), Some(_)) => log.fail(format!("tree {path}: {e:?}")),
            }
        }
        let mut round = Round { traced, setup_s, run_s, cpu_s, ops: log, ..Round::default() };
        if traced {
            round.spans = trace::take_spans();
            let t = trace::layer_totals(&round.spans);
            let (rpc, server) = (
                t.get("rpc.tcp").copied().unwrap_or_default(),
                t.get("server").copied().unwrap_or_default(),
            );
            let per = |ns: u64, n: u64| ratio(ns as f64 / 1e3, n as f64);
            let per_kib = |ns: u64, bytes: u64| ratio(ns as f64, bytes as f64 / 1024.0);
            round.layers = vec![
                ("server.calls", server.calls as f64),
                ("server.cpu_us_per_call", per(server.cpu_ns, server.calls)),
                ("server.wall_us_per_call", per(server.wall_ns, server.calls)),
                (
                    "rpc.tcp.overhead_us_per_call",
                    per(rpc.wall_ns.saturating_sub(server.wall_ns), rpc.calls),
                ),
                ("rpc.tcp.timeouts", timeouts as f64),
                ("xdr.encode_ns_per_kib", per_kib(xdr.encode_ns, xdr.encode_bytes)),
                ("xdr.decode_ns_per_kib", per_kib(xdr.decode_ns, xdr.decode_bytes)),
            ];
        }
        round
    }
}

/// The connection's state: the handles of the files that exist, and the
/// files' shadow contents.
struct Conn<'a> {
    rpc: &'a TcpRpcClient,
    traced: bool,
    pool: &'a ContentPool,
    files: &'a [TcpFile],
    dirs: &'a [(String, Fh3)],
    fh: Vec<Option<Fh3>>,
    shadow: Vec<Vec<u8>>,
    log: OpLog,
    xdr: XdrTimes,
}

impl<'a> Conn<'a> {
    fn new(
        rpc: &'a TcpRpcClient,
        traced: bool,
        pool: &'a ContentPool,
        files: &'a [TcpFile],
        seeded: &'a SeededTree,
    ) -> Self {
        let shadow = files
            .iter()
            .map(|f| f.seeded.map_or_else(Vec::new, |c| pool.bytes(c, 0, f.size as usize)))
            .collect();
        Conn {
            rpc,
            traced,
            pool,
            files,
            dirs: &seeded.0,
            fh: seeded.1.clone(),
            shadow,
            log: OpLog::default(),
            xdr: XdrTimes::default(),
        }
    }

    fn dir(&self, name: &str) -> Fh3 {
        self.dirs.iter().find(|(n, _)| n == name).expect("known directory").1
    }

    /// One NFS call: encode, send, wait, decode. Timed as one op.
    fn call<A: Xdr, R: Xdr>(&mut self, procedure: u32, args: &A) -> Result<R, String> {
        let start = Instant::now();
        let args = gvfs_xdr::to_bytes(args).map_err(|e| e.to_string())?;
        let encoded = Instant::now();
        let encoded_bytes = args.len() as u64;
        let send = || self.rpc.call(NFS_PROGRAM, NFS_V3, procedure, OpaqueAuth::none(), args);
        let reply = if self.traced { trace::span("rpc.tcp", procedure, send) } else { send() };
        let replied = Instant::now();
        let reply = reply.map_err(|e| format!("rpc: {e}"))?;
        let decoded = gvfs_xdr::from_bytes(&reply).map_err(|e| format!("decode: {e}"));
        let end = Instant::now();
        self.log.wall_ns.push((end - start).as_nanos() as u64);
        if self.traced {
            self.xdr.encode_ns += (encoded - start).as_nanos() as u64;
            self.xdr.encode_bytes += encoded_bytes;
            self.xdr.decode_ns += (end - replied).as_nanos() as u64;
            self.xdr.decode_bytes += reply.len() as u64;
        }
        decoded
    }

    fn run(&mut self, script: &[TcpOp]) {
        for &op in script {
            self.log.attempted += 1;
            if let Err(e) = self.step(op) {
                self.log.fail(format!("{op:?}: {e}"));
            }
        }
    }

    fn step(&mut self, op: TcpOp) -> Result<(), String> {
        let file = |k: usize| self.fh[k].ok_or_else(|| "file does not exist".to_string());
        match op {
            TcpOp::Getattr(k) => {
                let object = file(k)?;
                match self.call(proc3::GETATTR, &GetattrArgs { object })? {
                    GetattrRes::Ok(a)
                        if a.ftype == Ftype3::Reg && a.size == self.shadow[k].len() as u64 =>
                    {
                        Ok(())
                    }
                    other => Err(format!("unexpected reply {other:?}")),
                }
            }
            TcpOp::Lookup(k) => {
                let (fh, f) = (file(k)?, &self.files[k]);
                let args = LookupArgs { dir: self.dir(&f.dir), name: f.name.clone() };
                match self.call(proc3::LOOKUP, &args)? {
                    LookupRes::Ok { object, .. } if object == fh => Ok(()),
                    other => Err(format!("unexpected reply {other:?}")),
                }
            }
            TcpOp::Read(k, offset) => {
                let args = ReadArgs { file: file(k)?, offset, count: BLOCK as u32 };
                let shadow = &self.shadow[k];
                let end = (offset + BLOCK).min(shadow.len() as u64);
                let want = shadow.get(offset as usize..end as usize).unwrap_or(&[]).to_vec();
                let eof = offset + BLOCK >= shadow.len() as u64;
                match self.call(proc3::READ, &args)? {
                    ReadRes::Ok { data, eof: e, .. } if data == want && e == eof => {
                        self.log.bytes_read += data.len() as u64;
                        Ok(())
                    }
                    ReadRes::Ok { data, .. } => {
                        Err(format!("{} bytes differ from the shadow", data.len()))
                    }
                    other => Err(format!("unexpected reply {other:?}")),
                }
            }
            TcpOp::Write(k, offset, len, content) => {
                let data = self.pool.bytes(content, offset, len as usize);
                let args = WriteArgs {
                    file: file(k)?,
                    offset,
                    count: len as u32,
                    stable: StableHow::FileSync,
                    data,
                };
                match self.call(proc3::WRITE, &args)? {
                    WriteRes::Ok { count, .. } if u64::from(count) == len => {
                        let shadow = &mut self.shadow[k];
                        let end = (offset + len) as usize;
                        if shadow.len() < end {
                            shadow.resize(end, 0);
                        }
                        shadow[offset as usize..end].copy_from_slice(&args.data);
                        self.log.bytes_written += len;
                        Ok(())
                    }
                    other => Err(format!("unexpected reply {other:?}")),
                }
            }
            TcpOp::Create(k) => {
                let f = &self.files[k];
                let args = CreateArgs {
                    dir: self.dir(&f.dir),
                    name: f.name.clone(),
                    how: CreateHow::Guarded(Sattr3 { mode: Some(0o644), ..Sattr3::default() }),
                };
                match self.call(proc3::CREATE, &args)? {
                    NewObjRes::Ok { obj: Some(fh), .. } => {
                        self.fh[k] = Some(fh);
                        Ok(())
                    }
                    other => Err(format!("unexpected reply {other:?}")),
                }
            }
            TcpOp::Remove(k) => {
                file(k)?;
                let f = &self.files[k];
                let args = DirOpArgs { dir: self.dir(&f.dir), name: f.name.clone() };
                match self.call::<_, DirOpRes>(proc3::REMOVE, &args)? {
                    DirOpRes { status: Nfsstat3::Ok, .. } => {
                        self.fh[k] = None;
                        Ok(())
                    }
                    other => Err(format!("unexpected reply {other:?}")),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_nfs_tiny_is_correct_and_traceable() {
        let _guard = crate::TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for seed in [3, 4] {
            let w = TcpNfs::new(seed, TcpConfig::tiny());
            let round = w.round(false);
            assert_eq!(round.ops.failed, 0, "failures: {:?}", round.ops.failures);
            assert_eq!(round.ops.attempted, 400);
        }
        let traced = TcpNfs::new(3, TcpConfig::tiny()).round(true);
        assert_eq!(traced.ops.failed, 0, "failures: {:?}", traced.ops.failures);
        let layer = |name: &str| traced.layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        assert_eq!(layer("server.calls"), Some(400.0));
        assert!(layer("xdr.decode_ns_per_kib").is_some_and(|v| v > 0.0));
    }
}
