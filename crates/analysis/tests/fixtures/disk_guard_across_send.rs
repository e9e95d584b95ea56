// expect: guard-across-send
// as: crates/core/src/proxy/client.rs
// Known-bad: the proxy client's disk-cache guard, and with it the block
// store it owns, is live at a WAN entry point. A miss must drop the
// guard before the fetch goes on the wire, and take it again to insert
// the reply.
fn fill_gap(&self, fh: Fh3) {
    let disk = self.disk.lock();
    let gaps = disk.store.missing_ranges(fh, 0, BLOCK);
    self.transport.call(READ, gaps);
}
