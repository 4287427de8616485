//! The Call Forwarding application (paper §4.1, after Want et al.'s
//! Active Badge system).
//!
//! People wear badges; wall readers report sightings as `badge`
//! contexts. The phone system forwards calls to the room a person was
//! last sighted in, so corrupted sightings (a badge "seen" across the
//! building) misroute calls. Consistency constraints over consecutive
//! sightings catch physically impossible movements.

use crate::rooms::RoomGraph;
use crate::PervasiveApp;
use ctxres_constraint::{parse_constraints, Constraint, EvalError, PredicateRegistry, Resolved};
use ctxres_context::{Context, ContextKind, Lifespan, LogicalTime, Ticks, TruthTag};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The people tracked by the generator.
pub const PERSONS: [&str; 3] = ["peter", "mary", "john"];

/// The Call Forwarding application.
#[derive(Debug, Clone)]
pub struct CallForwarding {
    floor: Arc<RoomGraph>,
    ttl: Ticks,
    stay_probability: f64,
}

impl CallForwarding {
    /// The context kind produced by badge readers.
    pub fn kind() -> ContextKind {
        ContextKind::new("badge")
    }

    /// Creates the application over the default office floor.
    pub fn new() -> Self {
        CallForwarding {
            floor: Arc::new(Self::default_floor()),
            ttl: Ticks::new(5),
            stay_probability: 0.2,
        }
    }

    /// The default floor: two corridor wings joined in the middle, so
    /// most room pairs sit two or more hops apart — a badge cannot
    /// plausibly jump between them within one sighting.
    pub fn default_floor() -> RoomGraph {
        RoomGraph::from_edges([
            ("corridor-a", "office"),
            ("corridor-a", "lab"),
            ("corridor-a", "meeting"),
            ("corridor-b", "lobby"),
            ("corridor-b", "printer"),
            ("corridor-b", "kitchen"),
            ("corridor-a", "corridor-b"),
            ("kitchen", "annex"),
        ])
    }

    /// The floor graph in use.
    pub fn floor(&self) -> &RoomGraph {
        &self.floor
    }

    /// A room adjacent to (or equal to) `prev` but different from the
    /// true current room — indistinguishable from a legal move when
    /// checked against the previous sighting.
    fn plausible_wrong_room(
        &self,
        prev: &str,
        current_true: &str,
        rng: &mut rand::rngs::StdRng,
    ) -> String {
        let mut candidates: Vec<String> = self
            .floor
            .rooms()
            .iter()
            .filter(|r| self.floor.adjacent(prev, r) && **r != current_true)
            .map(|r| (*r).to_owned())
            .collect();
        if candidates.is_empty() {
            return self
                .floor
                .random_far_room(current_true, 2, rng)
                .unwrap_or_else(|| current_true.to_owned());
        }
        candidates.swap_remove(rng.gen_range(0..candidates.len()))
    }
}

impl Default for CallForwarding {
    fn default() -> Self {
        CallForwarding::new()
    }
}

/// The `room` attribute of context argument `i` of predicate `pred`,
/// borrowed from the context.
fn room_of<'a>(args: &[Resolved<'a>], i: usize, pred: &str) -> Result<&'a str, EvalError> {
    args[i]
        .ctx()
        .and_then(|(c, _)| c.text("room"))
        .ok_or_else(|| EvalError::Type {
            name: pred.to_owned(),
            detail: format!("argument {i} must be a badge context with a room"),
        })
}

impl PervasiveApp for CallForwarding {
    fn name(&self) -> &'static str {
        "call-forwarding"
    }

    fn constraints(&self) -> Vec<Constraint> {
        parse_constraints(
            "# consecutive sightings of a person name adjacent rooms
             constraint move_adjacent:
               forall a: badge, b: badge .
                 (same_subject(a, b) and seq_gap(a, b, 1)) implies room_adjacent(a, b)
             # sightings one apart stay within two hops
             constraint move_within2:
               forall a: badge, b: badge .
                 (same_subject(a, b) and seq_gap(a, b, 2)) implies room_within2(a, b)
             # sightings two apart stay within three hops (more pairs,
             # more count evidence -- the Fig. 5 refinement idea)
             constraint move_within3:
               forall a: badge, b: badge .
                 (same_subject(a, b) and seq_gap(a, b, 3)) implies room_within3(a, b)
             # the reporting reader must be the one installed in the room
             constraint reader_coherence:
               forall a: badge . eq(a.room, a.reader)
             # sightings name rooms that exist on this floor
             constraint known_room:
               forall a: badge . room_known(a)",
        )
        .expect("builtin constraints parse")
    }

    fn situations(&self) -> Vec<Constraint> {
        // Situations fire on *recent* sightings (contexts expire after
        // their TTL), so they toggle as people wander — the activation
        // edges the experiments count.
        parse_constraints(
            "# Peter is at his desk: forward his calls to the office phone
             constraint forward_to_office:
               exists b: badge . subject_eq(b, \"peter\") and eq(b.room, \"office\")
             # Mary is in the meeting room: hold her calls
             constraint mary_in_meeting:
               exists b: badge . subject_eq(b, \"mary\") and eq(b.room, \"meeting\")
             # John crossed into the B wing: reroute to the lobby desk
             constraint john_in_b_wing:
               exists b: badge .
                 subject_eq(b, \"john\") and
                 (eq(b.room, \"lobby\") or eq(b.room, \"printer\") or eq(b.room, \"kitchen\"))",
        )
        .expect("builtin situations parse")
    }

    fn registry(&self) -> PredicateRegistry {
        let mut reg = PredicateRegistry::with_builtins();
        let floor = Arc::clone(&self.floor);
        reg.register("room_adjacent", 2, move |args| {
            let a = room_of(args, 0, "room_adjacent")?;
            let b = room_of(args, 1, "room_adjacent")?;
            Ok(floor.adjacent(a, b))
        });
        let floor = Arc::clone(&self.floor);
        reg.register("room_within2", 2, move |args| {
            let a = room_of(args, 0, "room_within2")?;
            let b = room_of(args, 1, "room_within2")?;
            Ok(floor.within_hops(a, b, 2))
        });
        let floor = Arc::clone(&self.floor);
        reg.register("room_within3", 2, move |args| {
            let a = room_of(args, 0, "room_within3")?;
            let b = room_of(args, 1, "room_within3")?;
            Ok(floor.within_hops(a, b, 3))
        });
        let floor = Arc::clone(&self.floor);
        reg.register("room_known", 1, move |args| {
            let a = room_of(args, 0, "room_known")?;
            Ok(floor.contains(a))
        });
        reg
    }

    fn schema(&self) -> ctxres_constraint::ContextSchema {
        use ctxres_constraint::AttrType;
        let mut schema = ctxres_constraint::ContextSchema::new();
        schema
            .kind("badge")
            .attr("room", AttrType::Text)
            .attr("reader", AttrType::Text)
            .attr("seq", AttrType::Int);
        schema
    }

    fn recommended_window(&self) -> u64 {
        3
    }

    fn generate(&self, err_rate: f64, seed: u64, len: usize) -> Vec<Context> {
        assert!(
            (0.0..=1.0).contains(&err_rate),
            "err_rate must be a probability"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rooms: Vec<String> = vec!["office".into(), "corridor-a".into(), "lobby".into()];
        let mut seqs = vec![0i64; PERSONS.len()];
        let mut out = Vec::with_capacity(len);
        // Every badge is sighted once per tick (the Active Badge poll
        // cycle); `len` counts contexts, so the run spans len/3 ticks.
        for i in 0..len {
            let tick = i / PERSONS.len();
            let p = i % PERSONS.len();
            let prev_room = rooms[p].clone();
            // True movement: stay or step to an adjacent room.
            if rng.gen_bool(1.0 - self.stay_probability) {
                if let Some(next) = self.floor.random_neighbor(&rooms[p], &mut rng) {
                    rooms[p] = next;
                }
            }
            let corrupted = rng.gen_bool(err_rate);
            let (reported_room, reader) = if corrupted {
                // Most corruption is *plausible-but-wrong* (the paper's
                // Scenario B): a room consistent with where the person
                // just was, so the sighting slips past the check against
                // its predecessor and only conflicts with successors —
                // the case that defeats drop-latest. The rest is blatant
                // (a far room, often with a mismatched reader), caught
                // on arrival.
                if rng.gen_bool(0.85) {
                    let wrong = self.plausible_wrong_room(&prev_room, &rooms[p], &mut rng);
                    (wrong.clone(), wrong)
                } else {
                    let far = self
                        .floor
                        .random_far_room(&rooms[p], 2, &mut rng)
                        .unwrap_or_else(|| rooms[p].clone());
                    let reader = if rng.gen_bool(0.5) {
                        rooms[p].clone()
                    } else {
                        far.clone()
                    };
                    (far, reader)
                }
            } else {
                (rooms[p].clone(), rooms[p].clone())
            };
            let stamp = LogicalTime::new(tick as u64);
            out.push(
                Context::builder(Self::kind(), PERSONS[p])
                    .attr("room", reported_room.as_str())
                    .attr("reader", reader.as_str())
                    .attr("seq", seqs[p])
                    .stamp(stamp)
                    .lifespan(Lifespan::with_ttl(stamp, self.ttl))
                    .truth(if corrupted {
                        TruthTag::Corrupted
                    } else {
                        TruthTag::Expected
                    })
                    .build(),
            );
            seqs[p] += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_constraint::Evaluator;
    use ctxres_context::ContextPool;
    use std::collections::BTreeSet;

    fn all_violations(app: &CallForwarding, trace: Vec<Context>) -> Vec<ctxres_constraint::Link> {
        let pool: ContextPool = trace.into_iter().collect();
        let reg = app.registry();
        let eval = Evaluator::new(&reg);
        let mut links = Vec::new();
        for c in app.constraints() {
            links.extend(
                eval.check(&c, &pool, LogicalTime::new(0))
                    .unwrap()
                    .violations,
            );
        }
        links
    }

    #[test]
    fn clean_traces_are_consistent() {
        let app = CallForwarding::new();
        let trace = app.generate(0.0, 3, 300);
        assert!(all_violations(&app, trace).is_empty());
    }

    #[test]
    fn corrupted_sightings_are_usually_caught() {
        let app = CallForwarding::new();
        let trace = app.generate(0.25, 9, 300);
        let corrupted: BTreeSet<u64> = trace
            .iter()
            .enumerate()
            .filter(|(_, c)| c.truth().is_corrupted())
            .map(|(i, _)| i as u64)
            .collect();
        let blamed: BTreeSet<u64> = all_violations(&app, trace)
            .iter()
            .flat_map(|l| l.iter().map(|id| id.raw()))
            .collect();
        let recall = corrupted.intersection(&blamed).count() as f64 / corrupted.len().max(1) as f64;
        // Plausible-but-wrong sightings are sometimes genuinely
        // indistinguishable from legal moves, so recall sits well below
        // 1 by design; it must still clearly beat the error rate.
        assert!(recall > 0.5, "recall {recall}");
    }

    #[test]
    fn five_constraints_three_situations() {
        let app = CallForwarding::new();
        assert_eq!(app.constraints().len(), 5);
        assert_eq!(app.situations().len(), 3);
    }

    #[test]
    fn sightings_rotate_round_robin() {
        let app = CallForwarding::new();
        let trace = app.generate(0.0, 1, 6);
        let subjects: Vec<&str> = trace.iter().map(|c| c.subject()).collect();
        assert_eq!(
            subjects,
            vec!["peter", "mary", "john", "peter", "mary", "john"]
        );
    }

    #[test]
    fn corrupted_rooms_are_far_from_true_rooms() {
        let app = CallForwarding::new();
        let trace = app.generate(1.0, 5, 60);
        // With err_rate 1 every sighting is corrupted; each must name a
        // room ≥ 2 hops from *some* room (we can't see the true one, but
        // the constraint machinery can: clean vs corrupted must differ).
        assert!(trace.iter().all(|c| c.truth().is_corrupted()));
    }

    #[test]
    fn generate_is_deterministic() {
        let app = CallForwarding::new();
        assert_eq!(app.generate(0.3, 8, 40), app.generate(0.3, 8, 40));
    }

    #[test]
    fn custom_predicates_registered() {
        let app = CallForwarding::new();
        let reg = app.registry();
        assert!(reg.contains("room_adjacent"));
        assert!(reg.contains("room_within2"));
        assert!(reg.contains("room_within3"));
        assert!(reg.contains("room_known"));
    }
}
