//! Lane planning: turning "run this campaign on N lanes" into concrete
//! allocations on the site calendar.
//!
//! The site owns a bounded pool of replica host sets (in the paper's
//! terms: additional identical machine groups wired like the primary
//! one). A parallel campaign wants one host set per worker lane. The
//! planner first tries to reserve all of them in one atomic batch
//! ([`pos_testbed::Calendar::reserve_batch`]); when the calendar cannot
//! satisfy the full batch it takes whatever sets are free one by one.
//! A campaign gets one lane per set it could reserve and never more:
//! the testbed is part of a campaign's identity, so every lane boots the
//! campaign's own flavor ([`LaneFlavor`]) and a short site means fewer
//! lanes, not lanes on another testbed.
//!
//! Lane 0 is special: it is the canonical lane that writes the shared
//! result tree, and it must run on the primary set — if even that
//! reservation fails, the campaign cannot start at all.

use pos_simkernel::{SimDuration, SimTime};
use pos_testbed::{Calendar, ReservationError, ReservationId};
use std::fmt;

/// The testbed a campaign — and so every one of its lanes — runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneFlavor {
    /// Bare-metal hosts (`pos`).
    BareMetal,
    /// Virtual clones spawned from the hardware description (`vpos`).
    Virtual,
}

impl LaneFlavor {
    /// The flavor a testbed label names: `pos` is bare metal, `vpos`
    /// virtual; `None` for any other label.
    pub fn parse(label: &str) -> Option<LaneFlavor> {
        match label {
            "pos" => Some(LaneFlavor::BareMetal),
            "vpos" => Some(LaneFlavor::Virtual),
            _ => None,
        }
    }

    /// The testbed label journaled for this flavor.
    pub fn label(&self) -> &'static str {
        match self {
            LaneFlavor::BareMetal => "pos",
            LaneFlavor::Virtual => "vpos",
        }
    }
}

impl fmt::Display for LaneFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Names the site's replica host sets: replica 0 is the primary set
/// (the experiment's own host names), replica `k > 0` appends `@k`.
pub fn site_host_sets(hosts: &[String], replicas: usize) -> Vec<Vec<String>> {
    (0..replicas.max(1))
        .map(|k| {
            hosts
                .iter()
                .map(|h| {
                    if k == 0 {
                        h.clone()
                    } else {
                        format!("{h}@{k}")
                    }
                })
                .collect()
        })
        .collect()
}

/// Plans up to `lanes` worker lanes against the site calendar and
/// returns one reservation per planned lane, in lane order.
///
/// Tries an atomic [`Calendar::reserve_batch`] over the first
/// `min(lanes, host_sets.len())` replica sets; on a conflict it reserves
/// those sets one at a time and plans a lane for each one it got. Only a
/// failure to reserve the *primary* set (lane 0) is fatal.
pub fn plan_lanes(
    site: &mut Calendar,
    user: &str,
    host_sets: &[Vec<String>],
    lanes: usize,
    start: SimTime,
    duration: SimDuration,
) -> Result<Vec<ReservationId>, ReservationError> {
    assert!(lanes >= 1, "a campaign needs at least one lane");
    assert!(!host_sets.is_empty(), "the site has no host sets");

    let wanted = &host_sets[..lanes.min(host_sets.len())];
    if let Ok(ids) = site.reserve_batch(user, wanted, start, duration) {
        return Ok(ids);
    }

    // Batch failed: some sets are busy. Take what is free; lane 0 must
    // succeed.
    let mut ids = Vec::new();
    for (lane, set) in wanted.iter().enumerate() {
        match site.reserve(user.to_string(), set, start, duration) {
            Ok(id) => ids.push(id),
            Err(e) if lane == 0 => return Err(e),
            Err(_) => {}
        }
    }
    Ok(ids)
}

/// A scatter group's hold on the site: the lanes a DAG sweep stage fans
/// its parameter sweep across, leased on a *shared* site calendar and
/// released when the group's gather consumes the results.
///
/// Where [`plan_lanes`] answers one campaign's private question ("which
/// sets back my lanes right now"), a DAG executes several sweep stages
/// against the *same* site over time: each scatter group leases its
/// lanes for its window, and releasing the lease frees the sets for the
/// next ready stage. The allocation itself reuses [`plan_lanes`]
/// unchanged, so leased and standalone campaigns plan lanes alike.
#[derive(Debug)]
pub struct ScatterLease {
    /// The scatter group this lease backs (the DAG stage id).
    pub group: String,
    /// The site-calendar reservations, one per leased lane.
    pub reservations: Vec<ReservationId>,
}

impl ScatterLease {
    /// Acquires a lease for scatter group `group`: up to `lanes` worker
    /// lanes on the shared `site` calendar over `[start, start + duration)`.
    pub fn acquire(
        site: &mut Calendar,
        user: &str,
        group: impl Into<String>,
        host_sets: &[Vec<String>],
        lanes: usize,
        start: SimTime,
        duration: SimDuration,
    ) -> Result<ScatterLease, ReservationError> {
        let reservations = plan_lanes(site, user, host_sets, lanes, start, duration)?;
        Ok(ScatterLease {
            group: group.into(),
            reservations,
        })
    }

    /// Replica sets this lease actually holds — what the inner campaign
    /// should treat as the site's replica pool
    /// (`ParallelOptions::site_replicas`), so its private planning
    /// cannot claim sets the lease was refused.
    pub fn site_replicas(&self) -> usize {
        self.reservations.len()
    }

    /// Releases every reservation of the lease back to the site
    /// calendar. Returns how many reservations were released.
    pub fn release(self, site: &mut Calendar) -> usize {
        let mut released = 0;
        for id in self.reservations {
            if site.release(id).is_some() {
                released += 1;
            }
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts() -> Vec<String> {
        vec!["vriga".into(), "vtartu".into()]
    }

    fn site(replicas: usize) -> (Calendar, Vec<Vec<String>>) {
        (Calendar::new(), site_host_sets(&hosts(), replicas))
    }

    fn plan(cal: &mut Calendar, sets: &[Vec<String>], lanes: usize) -> Vec<ReservationId> {
        plan_lanes(
            cal,
            "alice",
            sets,
            lanes,
            SimTime::ZERO,
            SimDuration::from_hours(1),
        )
        .unwrap()
    }

    #[test]
    fn flavor_labels_round_trip() {
        for flavor in [LaneFlavor::BareMetal, LaneFlavor::Virtual] {
            assert_eq!(LaneFlavor::parse(flavor.label()), Some(flavor));
        }
        assert_eq!(LaneFlavor::parse("kvm"), None);
    }

    #[test]
    fn site_host_sets_keeps_primary_names() {
        let sets = site_host_sets(&hosts(), 3);
        assert_eq!(sets[0], vec!["vriga", "vtartu"]);
        assert_eq!(sets[1], vec!["vriga@1", "vtartu@1"]);
        assert_eq!(sets[2], vec!["vriga@2", "vtartu@2"]);
    }

    #[test]
    fn one_lane_per_set_when_site_is_free() {
        let (mut cal, sets) = site(4);
        assert_eq!(plan(&mut cal, &sets, 4).len(), 4);
    }

    #[test]
    fn lanes_beyond_the_site_are_not_planned() {
        let (mut cal, sets) = site(2);
        assert_eq!(plan(&mut cal, &sets, 4).len(), 2);
    }

    #[test]
    fn busy_replica_set_costs_its_lane() {
        let (mut cal, sets) = site(3);
        // Someone else holds replica set 1 for the whole window.
        cal.reserve(
            "bob".to_string(),
            &sets[1],
            SimTime::ZERO,
            SimDuration::from_hours(2),
        )
        .unwrap();
        assert_eq!(plan(&mut cal, &sets, 3).len(), 2);
    }

    #[test]
    fn scatter_lease_holds_and_releases_sets() {
        let (mut cal, sets) = site(2);
        let lease = ScatterLease::acquire(
            &mut cal,
            "alice",
            "rate-sweep",
            &sets,
            4,
            SimTime::ZERO,
            SimDuration::from_hours(1),
        )
        .unwrap();
        assert_eq!(lease.group, "rate-sweep");
        assert_eq!(lease.site_replicas(), 2);
        // While held, a second group cannot lease the primary set.
        assert!(ScatterLease::acquire(
            &mut cal,
            "alice",
            "latency-sweep",
            &sets,
            2,
            SimTime::ZERO,
            SimDuration::from_hours(1),
        )
        .is_err());
        assert_eq!(lease.release(&mut cal), 2);
        // Released sets are leasable again in the same window.
        let again = ScatterLease::acquire(
            &mut cal,
            "alice",
            "latency-sweep",
            &sets,
            2,
            SimTime::ZERO,
            SimDuration::from_hours(1),
        )
        .unwrap();
        assert_eq!(again.site_replicas(), 2);
    }

    #[test]
    fn busy_primary_set_is_fatal() {
        let (mut cal, sets) = site(2);
        cal.reserve(
            "bob".to_string(),
            &sets[0],
            SimTime::ZERO,
            SimDuration::from_hours(2),
        )
        .unwrap();
        let err = plan_lanes(
            &mut cal,
            "alice",
            &sets,
            2,
            SimTime::ZERO,
            SimDuration::from_hours(1),
        );
        assert!(err.is_err(), "no primary set, no campaign");
    }
}
