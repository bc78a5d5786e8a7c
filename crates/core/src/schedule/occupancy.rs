//! Flow occupancy: how many distinct flows each fabric resource carries
//! in one step. This is the counting half of PIMnet's "no contention"
//! rule, shared by [`super::validate`] and the analysis structural pass
//! (`P009`).
//!
//! A *flow* is a distinct (source, destination sequence) pair: several
//! back-to-back transfers of one pair form a single scheduled slot on
//! the wire and count once. The kernel records one `(resource, source,
//! transfer index)` entry per resource a transfer holds, sorts the
//! entries by resource, then source, then the transfer's borrowed
//! destination slice, and counts flow boundaries in one scan. The entry
//! buffer is reused across steps, so a step costs one sort and no map,
//! set or destination clone.

use pim_arch::geometry::DpuId;

use crate::topology::Resource;

/// Reusable per-step scratch for [`FlowOccupancy::flow_counts`].
///
/// Keep one per pass and [`clear`](Self::clear) it between steps: the
/// entry buffer then grows to the largest step once.
#[derive(Debug, Default)]
pub(crate) struct FlowOccupancy {
    uses: Vec<(Resource, u32, u32)>,
}

impl FlowOccupancy {
    /// Forgets the previous step's entries, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.uses.clear();
    }

    /// Records that transfer `ti` of the step, sent by `src`, holds every
    /// resource in `resources`.
    pub(crate) fn record(&mut self, ti: usize, src: DpuId, resources: &[Resource]) {
        let ti = u32::try_from(ti).expect("a step holds fewer than 2^32 transfers");
        self.uses.extend(resources.iter().map(|&r| (r, src.0, ti)));
    }

    /// The number of distinct flows on each recorded resource, one item
    /// per resource in ascending [`Resource`] order. `dsts_of(ti)` must
    /// return the destinations of the step's transfer `ti`.
    pub(crate) fn flow_counts<'d, F>(&mut self, dsts_of: F) -> FlowCounts<'_, F>
    where
        F: Fn(u32) -> &'d [DpuId],
    {
        self.uses.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then(a.1.cmp(&b.1))
                .then_with(|| dsts_of(a.2).cmp(dsts_of(b.2)))
        });
        FlowCounts {
            uses: &self.uses,
            dsts_of,
        }
    }
}

/// Iterator returned by [`FlowOccupancy::flow_counts`]: `(resource,
/// distinct flows)` in ascending resource order.
pub(crate) struct FlowCounts<'s, F> {
    uses: &'s [(Resource, u32, u32)],
    dsts_of: F,
}

impl<'d, F> Iterator for FlowCounts<'_, F>
where
    F: Fn(u32) -> &'d [DpuId],
{
    type Item = (Resource, usize);

    fn next(&mut self) -> Option<(Resource, usize)> {
        let &(resource, mut src, mut ti) = self.uses.first()?;
        let mut flows = 1;
        let mut len = 1;
        for &(r, s, t) in &self.uses[1..] {
            if r != resource {
                break;
            }
            // Sorted order puts equal flows side by side, so a new flow
            // starts exactly where the source or destinations change.
            if s != src || (self.dsts_of)(t) != (self.dsts_of)(ti) {
                flows += 1;
                src = s;
                ti = t;
            }
            len += 1;
        }
        self.uses = &self.uses[len..];
        Some((resource, flows))
    }
}

/// Seeded random schedules for the kernel's property tests.
#[cfg(test)]
pub(crate) mod testgen {
    use pim_arch::geometry::{DpuId, PimGeometry};
    use pim_sim::rng::SimRng;

    use crate::collective::CollectiveKind;
    use crate::schedule::{CommSchedule, CommStep, Phase, PhaseLabel, Span, Transfer};
    use crate::topology::{ChipLoc, Direction, Resource};

    /// The test geometry: 4 banks × 2 chips × 2 ranks, 16 DPUs.
    pub(crate) fn geometry() -> PimGeometry {
        PimGeometry::new(4, 2, 2, 1)
    }

    fn chip_of(g: &PimGeometry, id: u32) -> ChipLoc {
        ChipLoc::of(g.coord(DpuId(id)))
    }

    fn shuffle<T>(rng: &mut SimRng, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = rng.gen_range(0..=i);
            v.swap(i, j);
        }
    }

    /// Tier of a well-formed fabric transfer: 0 same-chip ring hops, 1
    /// same-rank DQ hops, 2 cross-rank bus hops.
    fn tier(t: &Transfer) -> u32 {
        if t.resources
            .iter()
            .any(|r| matches!(r, Resource::RingSegment { .. }))
        {
            0
        } else if t
            .resources
            .iter()
            .any(|r| matches!(r, Resource::RankBus { .. }))
        {
            2
        } else {
            1
        }
    }

    /// A well-formed fabric transfer from `src` at `tier` (see [`tier`]),
    /// with the matching resources in shuffled order.
    fn fabric_transfer(rng: &mut SimRng, g: &PimGeometry, src: u32, tier: u32) -> Transfer {
        let total = g.total_dpus();
        let banks = g.banks_per_chip;
        let dpus_per_chip = banks;
        let dpus_per_rank = banks * g.chips_per_rank;
        let chip_base = src / dpus_per_chip * dpus_per_chip;
        let rank_base = src / dpus_per_rank * dpus_per_rank;
        let (dsts, mut resources) = match tier {
            0 => {
                let dst = chip_base + (src - chip_base + rng.gen_range(1..banks)) % banks;
                // A small pool of segments, so distinct flows collide.
                let hops = rng.gen_range(1..3usize);
                let resources = (0..hops)
                    .map(|_| Resource::RingSegment {
                        chip: chip_of(g, src),
                        from_bank: rng.gen_range(0..2u32),
                        dir: if rng.gen_bool(0.5) {
                            Direction::East
                        } else {
                            Direction::West
                        },
                    })
                    .collect();
                (vec![dst], resources)
            }
            1 => {
                let other = rank_base + (chip_base - rank_base + dpus_per_chip) % dpus_per_rank;
                let dst = other + rng.gen_range(0..banks);
                let resources = vec![
                    Resource::ChipTx {
                        chip: chip_of(g, src),
                    },
                    Resource::ChipRx {
                        chip: chip_of(g, dst),
                    },
                ];
                (vec![dst], resources)
            }
            _ => {
                let other_rank = (rank_base + dpus_per_rank) % total;
                let mut dsts = vec![other_rank + rng.gen_range(0..dpus_per_rank)];
                for _ in 0..rng.gen_range(0..3usize) {
                    let d = rng.gen_range(0..total);
                    if d != src && !dsts.contains(&d) {
                        dsts.push(d);
                    }
                }
                let mut resources = vec![
                    Resource::ChipTx {
                        chip: chip_of(g, src),
                    },
                    Resource::RankBus { channel: 0 },
                ];
                for &d in &dsts {
                    let rx = Resource::ChipRx {
                        chip: chip_of(g, d),
                    };
                    if !resources.contains(&rx) {
                        resources.push(rx);
                    }
                }
                (dsts, resources)
            }
        };
        shuffle(rng, &mut resources);
        let span = Span::new(rng.gen_range(0..12usize), rng.gen_range(1..4usize));
        Transfer {
            src: DpuId(src),
            dsts: dsts.into_iter().map(DpuId).collect(),
            src_span: span,
            dst_span: span,
            combine: rng.gen_bool(0.5),
            resources,
        }
    }

    /// One random step. Sources come from a few nodes, so resources are
    /// shared often; transfers repeat earlier flows (duplicate flows),
    /// reuse a source with other destinations, permute a multicast's
    /// destinations, or copy locally. When `corrupt` is set, a few
    /// transfers break one structural rule (empty or out-of-range
    /// destinations, an out-of-range local copy, a wrong-tier resource, a
    /// dropped endpoint channel, a span past the buffer).
    fn random_step(rng: &mut SimRng, g: &PimGeometry, corrupt: bool) -> CommStep {
        let total = g.total_dpus();
        let sources: Vec<u32> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(0..total))
            .collect();
        let mut transfers: Vec<Transfer> = Vec::new();
        for _ in 0..rng.gen_range(0..24usize) {
            let src = sources[rng.gen_range(0..sources.len())];
            let roll = rng.gen_range(0..100u32);
            let mut t = if roll < 12 {
                let span = Span::new(rng.gen_range(0..12usize), rng.gen_range(1..4usize));
                Transfer {
                    src: DpuId(src),
                    dsts: vec![DpuId(src)],
                    src_span: span,
                    dst_span: span,
                    combine: false,
                    resources: Vec::new(),
                }
            } else if roll < 35 && !transfers.is_empty() {
                // The same flow again, possibly over other spans.
                let mut t = transfers[rng.gen_range(0..transfers.len())].clone();
                if rng.gen_bool(0.5) {
                    let span = Span::new(rng.gen_range(0..12usize), rng.gen_range(1..4usize));
                    t.src_span = span;
                    t.dst_span = span;
                }
                t
            } else if roll < 50 && !transfers.is_empty() {
                // Same source, other destinations: permute a multicast, or
                // send to a fresh destination set of the same tier while
                // still holding the old resources.
                let mut t = transfers[rng.gen_range(0..transfers.len())].clone();
                if t.dsts.len() > 1 && rng.gen_bool(0.7) {
                    shuffle(rng, &mut t.dsts);
                } else if !t.is_local() && t.src.0 < total {
                    let fresh = fabric_transfer(rng, g, t.src.0, tier(&t));
                    t.dsts = fresh.dsts;
                    for r in fresh.resources {
                        if !t.resources.contains(&r) {
                            t.resources.push(r);
                        }
                    }
                }
                t
            } else {
                let tier = rng.gen_range(0..3u32);
                fabric_transfer(rng, g, src, tier)
            };
            if corrupt && rng.gen_bool(0.04) {
                match rng.gen_range(0..7u32) {
                    0 => t.dsts.clear(),
                    1 => t.dsts.push(DpuId(total + rng.gen_range(0..3u32))),
                    2 => {
                        let id = DpuId(total + rng.gen_range(0..3u32));
                        t = Transfer {
                            src: id,
                            dsts: vec![id],
                            resources: Vec::new(),
                            ..t
                        };
                    }
                    3 => t.resources.push(Resource::RankBus { channel: 0 }),
                    4 => t
                        .resources
                        .retain(|r| !matches!(r, Resource::ChipTx { .. })),
                    5 => t.src_span = Span::new(15, 4),
                    _ => t.src = DpuId(total + 7),
                }
            }
            transfers.push(t);
        }
        CommStep { transfers }
    }

    /// A random AllReduce-shaped schedule of one to three phases, each
    /// multiplexed or not, with up to three random steps each.
    pub(crate) fn random_schedule(rng: &mut SimRng) -> CommSchedule {
        let g = geometry();
        let corrupt = rng.gen_bool(0.5);
        let phases = (0..rng.gen_range(1..4usize))
            .map(|_| Phase {
                label: PhaseLabel::InterBank,
                multiplexed: rng.gen_bool(0.5),
                steps: (0..rng.gen_range(1..4usize))
                    .map(|_| random_step(rng, &g, corrupt))
                    .collect(),
            })
            .collect();
        CommSchedule {
            kind: CollectiveKind::AllReduce,
            geometry: g,
            elems_per_node: 16,
            elem_bytes: 4,
            buffer_len: 16,
            result_spans: vec![vec![Span::new(0, 16)]; g.total_dpus() as usize],
            phases,
        }
    }
}
