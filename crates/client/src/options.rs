//! Mount options mirroring the Linux NFS client knobs the paper varies.
//!
//! Knobs no experiment varies are constants instead: the transfer (and
//! page) size is [`gvfs_nfs3::TRANSFER_SIZE`], and the lookup-cache
//! capacity and the hard-mount retry count live in the client.

use std::time::Duration;

/// NFS mount options.
///
/// The defaults match a stock Linux NFSv3 mount; the paper's setups map
/// to: `NFS-inv` = `with_attr_timeout(30s)`, `NFS-noac` = [`MountOptions::noac`],
/// GVFS2's base = `noac` on the kernel client with GVFS providing
/// consistency above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MountOptions {
    /// Minimum attribute cache timeout for regular files.
    pub acregmin: Duration,
    /// Maximum attribute cache timeout for regular files.
    pub acregmax: Duration,
    /// Minimum attribute cache timeout for directories.
    pub acdirmin: Duration,
    /// Maximum attribute cache timeout for directories.
    pub acdirmax: Duration,
    /// Disable attribute caching entirely (`noac`).
    pub noac: bool,
    /// Enforce close-to-open consistency: revalidate attributes on every
    /// [`crate::NfsClient::open`].
    pub close_to_open: bool,
    /// Page cache capacity in bytes (the VM buffer cache; the paper's
    /// clients were 256 MB VMs, leaving roughly this much for pages).
    pub page_cache_bytes: usize,
    /// Backoff between retries.
    pub retry_backoff: Duration,
}

impl Default for MountOptions {
    fn default() -> Self {
        MountOptions {
            acregmin: Duration::from_secs(3),
            acregmax: Duration::from_secs(60),
            acdirmin: Duration::from_secs(30),
            acdirmax: Duration::from_secs(60),
            noac: false,
            close_to_open: true,
            page_cache_bytes: 64 * 1024 * 1024,
            retry_backoff: Duration::from_secs(1),
        }
    }
}

impl MountOptions {
    /// A mount with a fixed attribute timeout for files and directories
    /// (the paper's 30-second revalidation period setups).
    pub fn with_attr_timeout(timeout: Duration) -> Self {
        MountOptions {
            acregmin: timeout,
            acregmax: timeout,
            acdirmin: timeout,
            acdirmax: timeout,
            ..Default::default()
        }
    }

    /// A `noac` mount: every access revalidates attributes.
    pub fn noac() -> Self {
        MountOptions { noac: true, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_linux_like() {
        let o = MountOptions::default();
        assert_eq!(o.acregmin, Duration::from_secs(3));
        assert!(!o.noac);
        assert!(o.close_to_open);
    }

    #[test]
    fn fixed_timeout_sets_all_four() {
        let o = MountOptions::with_attr_timeout(Duration::from_secs(30));
        assert_eq!(o.acregmin, o.acregmax);
        assert_eq!(o.acdirmin, Duration::from_secs(30));
    }

    #[test]
    fn noac_flag() {
        assert!(MountOptions::noac().noac);
    }
}
