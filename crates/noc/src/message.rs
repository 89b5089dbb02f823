//! Messages on the TLB interconnect.
//!
//! Translation traffic is tiny: a request carries a virtual page number and
//! slice id, a response carries a physical frame. Both fit in a single flit
//! on a 64-bit datapath, so the network models treat every message as one
//! flit (no serialization delay; the paper's narrow-FBFly serialization
//! penalty is modelled analytically in [`crate::latency`]).

use nocstar_types::time::Cycle;
use nocstar_types::CoreId;
use std::fmt;

/// What a message is carrying (used for statistics and for the simulator's
/// dispatch; the network treats all kinds identically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// L1-TLB-miss lookup request to a shared L2 slice/bank.
    TlbRequest,
    /// Translation (or miss notification) back to the requester.
    TlbResponse,
    /// Shootdown invalidation towards a slice or a leader core.
    Invalidation,
    /// Insert of a freshly walked translation into a remote slice
    /// (walk-at-requester policy, Fig 17).
    Insert,
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgKind::TlbRequest => write!(f, "req"),
            MsgKind::TlbResponse => write!(f, "resp"),
            MsgKind::Invalidation => write!(f, "inval"),
            MsgKind::Insert => write!(f, "insert"),
        }
    }
}

/// A single-flit message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Message {
    /// Caller-chosen id used to match deliveries back to transactions.
    pub id: u64,
    /// Source tile.
    pub src: CoreId,
    /// Destination tile.
    pub dst: CoreId,
    /// Payload kind.
    pub kind: MsgKind,
}

impl Message {
    /// Builds a message.
    pub fn new(id: u64, src: CoreId, dst: CoreId, kind: MsgKind) -> Self {
        Self { id, src, dst, kind }
    }

    /// True when source and destination share a tile (no network traversal).
    pub fn is_local(&self) -> bool {
        self.src == self.dst
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{} {}->{}", self.kind, self.id, self.src, self.dst)
    }
}

/// A message arriving at its destination.
///
/// Only the network models in this crate build one: the type is
/// `#[non_exhaustive]`, so code outside it cannot construct a delivery or
/// restamp one with a functional update, and every arrival time comes
/// from a fabric's simulated clock. Fields stay public to read.
///
/// ```compile_fail,E0639
/// fn restamp(d: nocstar_noc::Delivery) -> nocstar_noc::Delivery {
///     nocstar_noc::Delivery { at: d.at, ..d }
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Delivery {
    /// The delivered message.
    pub msg: Message,
    /// Arrival cycle.
    pub at: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_is_src_eq_dst() {
        let local = Message::new(1, CoreId::new(3), CoreId::new(3), MsgKind::TlbRequest);
        assert!(local.is_local());
        let remote = Message::new(2, CoreId::new(3), CoreId::new(4), MsgKind::TlbResponse);
        assert!(!remote.is_local());
    }

    #[test]
    fn display_shows_route() {
        let m = Message::new(7, CoreId::new(0), CoreId::new(5), MsgKind::Invalidation);
        assert_eq!(m.to_string(), "inval#7 core0->core5");
    }
}
