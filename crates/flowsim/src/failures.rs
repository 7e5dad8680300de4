//! Dense failed-link state with an invalidation epoch.
//!
//! The event loop used to track failures in a `HashSet<usize>` probed
//! once per link per path per event. [`FailedLinks`] replaces it with a
//! `Vec<bool>` keyed by `LinkId::idx()` — O(1) with no hashing — and
//! carries a monotonically increasing **epoch** that bumps whenever the
//! failure set changes. Route caches key their validity on the epoch:
//! any cached answer computed at epoch `e` remains exact while the epoch
//! stays `e`, because routing is a pure function of the graph and the
//! failure set.

use netgraph::LinkId;

/// The set of currently-failed directed links.
#[derive(Debug, Clone)]
pub struct FailedLinks {
    down: Vec<bool>,
    count: usize,
    epoch: u64,
}

impl FailedLinks {
    /// No failures, epoch 0, sized for a graph with `link_count`
    /// directed links.
    pub fn new(link_count: usize) -> Self {
        Self {
            down: vec![false; link_count],
            count: 0,
            epoch: 0,
        }
    }

    /// Marks a directed link as failed. Bumps the epoch (only) when the
    /// link was previously up; returns whether it was newly failed.
    pub fn fail(&mut self, l: LinkId) -> bool {
        let slot = &mut self.down[l.idx()];
        if *slot {
            return false;
        }
        *slot = true;
        self.count += 1;
        self.epoch += 1;
        true
    }

    /// Marks a directed link as recovered. Bumps the epoch (only) when
    /// the link was previously down; returns whether it was newly
    /// recovered. The epoch contract is the same as [`FailedLinks::fail`]:
    /// any change to the failure set — in either direction — invalidates
    /// route caches keyed on [`FailedLinks::epoch`].
    pub fn recover(&mut self, l: LinkId) -> bool {
        let slot = &mut self.down[l.idx()];
        if !*slot {
            return false;
        }
        *slot = false;
        self.count -= 1;
        self.epoch += 1;
        true
    }

    /// Recovers every failed link in one step. Bumps the epoch once
    /// (only) when at least one link was down; returns how many links
    /// came back up.
    pub fn set_all_up(&mut self) -> usize {
        if self.count == 0 {
            return 0;
        }
        let recovered = self.count;
        self.down.fill(false);
        self.count = 0;
        self.epoch += 1;
        recovered
    }

    /// Whether this directed link is failed.
    #[inline]
    pub fn is_down(&self, l: LinkId) -> bool {
        self.down[l.idx()]
    }

    /// Whether any link has failed.
    #[inline]
    pub fn any(&self) -> bool {
        self.count > 0
    }

    /// Number of failed directed links.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Invalidation epoch: changes exactly when the failure set changes.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether every link of a path is still up.
    #[inline]
    pub fn path_alive(&self, links: &[LinkId]) -> bool {
        links.iter().all(|&l| !self.down[l.idx()])
    }

    /// The failed directed links, ascending by id.
    pub fn down_links(&self) -> Vec<LinkId> {
        self.down
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(LinkId(i as u32)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_bumps_only_on_new_failures() {
        let mut f = FailedLinks::new(4);
        assert_eq!(f.epoch(), 0);
        assert!(!f.any());
        assert!(f.fail(LinkId(2)));
        assert_eq!(f.epoch(), 1);
        assert!(!f.fail(LinkId(2)), "re-failing is a no-op");
        assert_eq!(f.epoch(), 1);
        assert!(f.fail(LinkId(0)));
        assert_eq!(f.epoch(), 2);
        assert_eq!(f.count(), 2);
    }

    #[test]
    fn recover_bumps_epoch_only_on_transitions() {
        let mut f = FailedLinks::new(4);
        assert!(!f.recover(LinkId(1)), "recovering an up link is a no-op");
        assert_eq!(f.epoch(), 0);
        f.fail(LinkId(1));
        f.fail(LinkId(3));
        assert_eq!((f.epoch(), f.count()), (2, 2));
        assert!(f.recover(LinkId(1)));
        assert_eq!((f.epoch(), f.count()), (3, 1));
        assert!(!f.is_down(LinkId(1)));
        assert!(f.is_down(LinkId(3)));
        assert!(!f.recover(LinkId(1)), "double recovery is a no-op");
        assert_eq!(f.epoch(), 3);
    }

    #[test]
    fn set_all_up_recovers_everything_in_one_epoch() {
        let mut f = FailedLinks::new(5);
        assert_eq!(f.set_all_up(), 0, "nothing down: no epoch bump");
        assert_eq!(f.epoch(), 0);
        f.fail(LinkId(0));
        f.fail(LinkId(2));
        f.fail(LinkId(4));
        assert_eq!(f.set_all_up(), 3);
        assert_eq!((f.epoch(), f.count()), (4, 0));
        assert!(!f.any());
        assert!(f.path_alive(&[LinkId(0), LinkId(2), LinkId(4)]));
    }

    #[test]
    fn path_alive_checks_every_link() {
        let mut f = FailedLinks::new(3);
        let p = [LinkId(0), LinkId(1), LinkId(2)];
        assert!(f.path_alive(&p));
        f.fail(LinkId(1));
        assert!(!f.path_alive(&p));
        assert!(f.path_alive(&[LinkId(0), LinkId(2)]));
        assert!(f.is_down(LinkId(1)));
        assert!(!f.is_down(LinkId(0)));
    }
}
