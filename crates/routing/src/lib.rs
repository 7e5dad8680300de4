//! Routing and control-state machinery for flat-tree networks (§4).
//!
//! * [`ksp`] — the k-shortest-path [`RouteTable`]. Per §4.2.1's
//!   Observations 1 and 2, paths are computed and cached at the
//!   **ingress/egress switch** level and spliced with the single server
//!   uplinks, which is both the paper's state-reduction trick and a large
//!   computational win. One failure rule reuses a pair's paths unless a
//!   failed link touches its Yen footprint, and one server-path function
//!   serves every caller.
//! * [`plane`] — the shared route plane: building a [`RouteTable`] for a
//!   whole pair set up front, in parallel (deterministically), to share
//!   read-only across simulations.
//! * [`addressing`] — the flat-tree IPv4 address layout of Figure 5:
//!   `10/8 | 13-bit switch id | 3-bit path id | 2-bit topology mode |
//!   6-bit server id`, with per-mode address sets preconfigured on every
//!   server and `/24` prefix aggregation at the ingress switch.
//! * [`source_routing`] — §4.2.2's OpenFlow-compatible source routing:
//!   the hop-by-hop output-port list packed into the 48-bit source MAC,
//!   with the TTL acting as the location pointer and per-TTL bit masks at
//!   transit switches.
//! * [`two_level`] — the classic fat-tree two-level (prefix/suffix)
//!   routing for Clos mode, the §4 baseline that needs no SDN machinery.
//! * [`segment`] — §4.2.2's first option: segment routing with a Path
//!   Computation Element pushing MPLS label stacks at ingress.
//! * [`rules`] — OpenFlow rule synthesis and counting for both schemes,
//!   plus the network-state analysis of §4.2 (`n²kL/N` → `S²kL/N` →
//!   `S·k`). The rule *diffs* between modes drive the Table 3 conversion
//!   delay model in the `control` crate.

pub mod addressing;
pub mod ksp;
pub mod plane;
pub mod rules;
pub mod segment;
pub mod source_routing;
pub mod two_level;

pub use addressing::{AddressPlan, FlatTreeAddress, TopologyModeId};
pub use ksp::{PairRoutes, RouteTable};
pub use rules::{Rule, RuleMatch, RuleSet, StateAnalysis};
pub use segment::{LabelStack, Pce};
pub use two_level::TwoLevelRouting;

/// The name the benchmark package (`perfbench/`) compiles against for a
/// prebuilt [`RouteTable`]. Kept only for it; drop the alias at the next
/// change to the benchmark.
pub type SharedRouteTable = RouteTable;
