//! Criterion micro-benchmarks for the hot paths of the stack:
//! XDR codecs, record marking, the filesystem, the caches, and the
//! consistency state machines.
//!
//! Run: `cargo bench -p gvfs-bench`

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use gvfs_core::cache::{DiskCache, FileCache};
use gvfs_core::delegation::DelegationTable;
use gvfs_core::invalidation::ConcurrentInvalidationTracker;
use gvfs_core::DelegationConfig;
use gvfs_netsim::SimTime;
use gvfs_nfs3::{Fattr3, Fh3, Ftype3, LookupArgs, NfsTime3, ReadRes};
use gvfs_rpc::message::{CallBody, MessageBody, OpaqueAuth, RpcMessage};
use gvfs_rpc::record::{write_record, RecordReader, MAX_FRAGMENT};
use gvfs_vfs::{Timestamp, Vfs};

fn sample_attr() -> Fattr3 {
    Fattr3 {
        ftype: Ftype3::Reg,
        mode: 0o644,
        nlink: 1,
        uid: 1000,
        gid: 100,
        size: 123_456,
        used: 123_456,
        rdev: (0, 0),
        fsid: 1,
        fileid: 42,
        atime: NfsTime3 { seconds: 1, nseconds: 2 },
        mtime: NfsTime3 { seconds: 3, nseconds: 4 },
        ctime: NfsTime3 { seconds: 5, nseconds: 6 },
    }
}

fn bench_xdr(c: &mut Criterion) {
    let mut group = c.benchmark_group("xdr");
    let attr = sample_attr();
    group.bench_function("encode_fattr3", |b| {
        b.iter(|| gvfs_xdr::to_bytes(&attr).unwrap());
    });
    let bytes = gvfs_xdr::to_bytes(&attr).unwrap();
    group.bench_function("decode_fattr3", |b| {
        b.iter(|| gvfs_xdr::from_bytes::<Fattr3>(&bytes).unwrap());
    });

    let msg = RpcMessage {
        xid: 7,
        body: MessageBody::Call(CallBody::new(
            gvfs_nfs3::NFS_PROGRAM,
            3,
            gvfs_nfs3::proc3::LOOKUP,
            OpaqueAuth::none(),
            gvfs_xdr::to_bytes(&LookupArgs { dir: Fh3::from_fileid(1), name: "Makefile".into() })
                .unwrap(),
        )),
    };
    group.bench_function("encode_rpc_lookup_call", |b| {
        b.iter(|| gvfs_xdr::to_bytes(&msg).unwrap());
    });

    let read_res = ReadRes::Ok {
        file_attributes: Some(attr),
        count: 32 * 1024,
        eof: false,
        data: vec![7u8; 32 * 1024],
    };
    group.throughput(Throughput::Bytes(32 * 1024));
    group.bench_function("encode_read_reply_32k", |b| {
        b.iter(|| gvfs_xdr::to_bytes(&read_res).unwrap());
    });
    group.finish();
}

fn bench_record_marking(c: &mut Criterion) {
    let mut group = c.benchmark_group("record_marking");
    let payload = vec![5u8; 64 * 1024];
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("frame_64k", |b| {
        b.iter(|| write_record(&payload, MAX_FRAGMENT));
    });
    let framed = write_record(&payload, 16 * 1024);
    group.bench_function("reassemble_64k_fragmented", |b| {
        b.iter_batched(
            RecordReader::new,
            |mut reader| {
                reader.push(&framed).unwrap();
                reader.pop().unwrap()
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_vfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("vfs");
    group.bench_function("create_write_remove", |b| {
        let vfs = Vfs::new();
        let mut n = 0u64;
        b.iter(|| {
            let name = format!("f{n}");
            n += 1;
            let f = vfs.create(vfs.root(), &name, 0o644, Timestamp::from_nanos(n)).unwrap();
            vfs.write(f, 0, &[1u8; 4096], Timestamp::from_nanos(n)).unwrap();
            vfs.remove(vfs.root(), &name, Timestamp::from_nanos(n)).unwrap();
        });
    });
    group.bench_function("lookup_hot", |b| {
        let vfs = Vfs::new();
        for i in 0..1000 {
            vfs.create(vfs.root(), &format!("f{i}"), 0o644, Timestamp::from_nanos(0)).unwrap();
        }
        b.iter(|| vfs.lookup(vfs.root(), "f500").unwrap());
    });
    group.throughput(Throughput::Bytes(32 * 1024));
    group.bench_function("read_32k", |b| {
        let vfs = Vfs::new();
        let f = vfs.create(vfs.root(), "big", 0o644, Timestamp::from_nanos(0)).unwrap();
        vfs.write(f, 0, &vec![9u8; 1 << 20], Timestamp::from_nanos(0)).unwrap();
        b.iter(|| vfs.read(f, 128 * 1024, 32 * 1024).unwrap());
    });
    group.finish();
}

fn bench_file_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("proxy_file_cache");
    group.bench_function("read_hit_32k", |b| {
        let mut fc = FileCache::default();
        fc.insert_clean(0, vec![1u8; 1 << 20]);
        b.iter(|| fc.read(512 * 1024, 32 * 1024).unwrap());
    });
    group.bench_function("dirty_write_and_clean_range", |b| {
        b.iter_batched(
            || {
                let mut fc = FileCache::default();
                fc.insert_clean(0, vec![0u8; 256 * 1024]);
                fc
            },
            |mut fc| {
                fc.write_dirty(100_000, vec![7u8; 50_000]);
                fc.clean_range(98_304, 32 * 1024);
                fc
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("dirty_blocks_enumeration", |b| {
        let mut fc = FileCache::default();
        for i in 0..64 {
            fc.write_dirty(i * 65_536, vec![1u8; 1000]);
        }
        b.iter(|| fc.dirty_blocks(32 * 1024));
    });
    group.finish();
}

fn bench_disk_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("proxy_disk_cache");
    group.bench_function("attr_hit", |b| {
        let mut cache = DiskCache::new(1 << 30);
        let attr = sample_attr();
        for i in 0..10_000 {
            cache.put_attr(Fh3::from_fileid(i), Fattr3 { fileid: i, ..attr });
        }
        b.iter(|| cache.attr(Fh3::from_fileid(5000)).unwrap());
    });
    group.bench_function("data_read_hit_32k", |b| {
        let mut cache = DiskCache::new(1 << 30);
        cache.store.insert_clean(Fh3::from_fileid(1), 0, vec![1u8; 1 << 20]);
        b.iter(|| cache.store.read(Fh3::from_fileid(1), 256 * 1024, 32 * 1024).unwrap());
    });
    group.finish();
}

fn bench_invalidation(c: &mut Criterion) {
    let mut group = c.benchmark_group("invalidation_tracker");
    group.bench_function("record_modification_6_clients", |b| {
        let tracker = ConcurrentInvalidationTracker::new(4096);
        for client in 1..=6 {
            tracker.getinv(client, None);
        }
        let mut fh = 0u64;
        b.iter(|| {
            fh += 1;
            tracker.record_modification(Fh3::from_fileid(fh % 512), 1);
        });
    });
    group.bench_function("getinv_drain_100", |b| {
        b.iter_batched(
            || {
                let tracker = ConcurrentInvalidationTracker::new(4096);
                let boot = tracker.getinv(1, None);
                for i in 0..100 {
                    tracker.record_modification(Fh3::from_fileid(i), 2);
                }
                (tracker, boot.timestamp)
            },
            |(tracker, ts)| tracker.getinv(1, Some(ts)),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_delegation(c: &mut Criterion) {
    let mut group = c.benchmark_group("delegation_table");
    group.bench_function("access_renewal_hot_path", |b| {
        let mut table = DelegationTable::new(DelegationConfig::default());
        let fh = Fh3::from_fileid(1);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            table.access(fh, 1, false, None, SimTime::from_nanos(t))
        });
    });
    group.bench_function("access_with_conflict_detection", |b| {
        let mut table = DelegationTable::new(DelegationConfig::default());
        // Six readers share 64 files.
        for f in 0..64 {
            for client in 1..=6 {
                table.access(Fh3::from_fileid(f), client, false, None, SimTime::ZERO);
            }
        }
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let (_, recalls) =
                table.access(Fh3::from_fileid(t % 64), 7, true, None, SimTime::from_nanos(t));
            for r in recalls {
                table.recall_done(r.fh, r.client, Vec::new());
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_xdr,
    bench_record_marking,
    bench_vfs,
    bench_file_cache,
    bench_disk_cache,
    bench_invalidation,
    bench_delegation,
);
criterion_main!(benches);
