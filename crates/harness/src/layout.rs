//! The one pid layout of both harness stacks, and the world assembly and
//! client send path built on it.
//!
//! A world hosts `rf` replicas of each of its `n` groups, group-major at
//! pids `[g·rf, g·rf + rf)`, then its clients, client `c` at `n·rf + c`,
//! and the flusher, if any, as client `n_clients`. The unreplicated stack
//! is the `rf = 1` layout: servers at `0..n`, clients after them. Every
//! intake check maps a sender through [`Layout::replica_at`], so a pid
//! names a group in exactly one place (DESIGN.md §4, "Who may send what").

use crate::netmsg::NetMsg;
use flexcast_overlay::LatencyMatrix;
use flexcast_sim::{Actor, Ctx, LinkModel, ProcessId, World};
use flexcast_types::{ClientId, DestSet, GroupId, Message};

/// The pids of a world with `rf` replicas per group (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Number of groups.
    pub(crate) n_groups: usize,
    /// Replicas per group, at least 1.
    pub(crate) rf: u32,
}

impl Layout {
    /// The layout of `n_groups` groups of `rf ≥ 1` replicas each.
    pub fn new(n_groups: usize, rf: u32) -> Self {
        assert!(rf >= 1, "need at least one replica per group");
        Layout { n_groups, rf }
    }

    /// The pid of replica `r` of group `g`.
    pub fn replica_pid(self, g: GroupId, r: u32) -> ProcessId {
        g.index() * self.rf as usize + r as usize
    }

    /// The pid of client `c`.
    pub fn client_pid(self, c: ClientId) -> ProcessId {
        self.n_groups * self.rf as usize + c.0 as usize
    }

    /// The group and replica index at `pid`; `None` for a pid past the
    /// replica block (a client, the flusher, or no process at all).
    pub fn replica_at(self, pid: ProcessId) -> Option<(GroupId, u32)> {
        let rf = self.rf as usize;
        if pid >= self.n_groups * rf {
            return None;
        }
        let g = u16::try_from(pid / rf).ok()?;
        Some((GroupId(g), (pid % rf) as u32))
    }

    /// Sends client `c`'s copy of `msg` to every replica of each group in
    /// `groups`, in ascending pid order ([`Ctx::send_many`], which
    /// schedules exactly what one send per pid would).
    pub(crate) fn send_copy(
        self,
        c: ClientId,
        msg: Message,
        groups: DestSet,
        ctx: &mut Ctx<'_, NetMsg>,
    ) {
        let replicas = |g| (0..self.rf).map(move |r| self.replica_pid(g, r));
        let reply_to = self.client_pid(c);
        let msg = NetMsg::Client { msg, reply_to };
        ctx.send_many(groups.iter().flat_map(replicas).collect(), msg);
    }

    /// The world of this layout on `matrix` (one site per group):
    /// `replica(g, r)` at each replica pid, sited at its group, then each
    /// of `others` (the clients, then the flusher) at its site. `tune` sets
    /// per-pid link costs before the world takes the link model.
    pub(crate) fn world<A: Actor<NetMsg>>(
        self,
        matrix: &LatencyMatrix,
        mut replica: impl FnMut(GroupId, u32) -> A,
        others: impl IntoIterator<Item = (A, GroupId)>,
        jitter_ms: f64,
        tune: impl FnOnce(&mut LinkModel),
        seed: u64,
    ) -> World<NetMsg, A> {
        assert_eq!(
            matrix.len(),
            self.n_groups,
            "one latency-matrix site per group"
        );
        let (mut actors, mut sites) = (Vec::new(), Vec::new());
        for g in (0..self.n_groups).map(|g| GroupId(g as u16)) {
            for r in 0..self.rf {
                actors.push(replica(g, r));
                sites.push(g);
            }
        }
        for (actor, site) in others {
            actors.push(actor);
            sites.push(site);
        }
        let mut link = LinkModel::new(matrix.clone(), sites, jitter_ms);
        tune(&mut link);
        World::new(actors, link, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Past the replica block a pid names no group: the clients, and a
    /// pid whose quotient does not fit a `u16`, which a truncating cast
    /// would map back into the overlay.
    #[test]
    fn a_pid_past_the_replicas_names_no_group() {
        let layout = Layout::new(4, 3);
        assert_eq!(layout.replica_at(11), Some((GroupId(3), 2)));
        assert_eq!(layout.replica_at(12), None);
        let far = 65_536 * 3 + 3;
        assert_eq!(layout.replica_at(far), None);
        assert_eq!(Layout::new(1 << 16, 3).replica_at(far), None);
        assert_eq!(
            Layout::new(1 << 16, 3).replica_at(far - 4),
            Some((GroupId(u16::MAX), 2))
        );
    }
}
