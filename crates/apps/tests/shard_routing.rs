//! Every application's constraints are per-subject, so a sharded
//! engine partitions all of their kinds by subject and keeps none on
//! the shared-scope shard: sharding an application's deployment changes
//! where contexts are checked, never what is found.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::location_tracking::LocationTracking;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_apps::smart_ringer::SmartRinger;
use ctxres_apps::PervasiveApp;
use ctxres_constraint::{parse_constraints, CompiledConstraint};
use ctxres_middleware::ShardPlan;

/// The §2.2 speed constraint the city-scale runs deploy.
const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

#[test]
fn every_app_constraint_partitions_by_subject() {
    let apps: [Box<dyn PervasiveApp>; 4] = [
        Box::new(CallForwarding::new()),
        Box::new(RfidAnomalies::new()),
        Box::new(LocationTracking::new()),
        Box::new(SmartRinger::new()),
    ];
    let mut deployments: Vec<(&str, _)> = apps
        .iter()
        .map(|app| (app.name(), app.constraints()))
        .collect();
    deployments.push(("§2.2 speed", parse_constraints(SPEED).unwrap()));
    let mut checked = 0;
    for (name, constraints) in &deployments {
        for c in constraints {
            assert!(
                CompiledConstraint::compile(c).is_per_subject(),
                "{name}: `{}` is not per-subject",
                c.name()
            );
            checked += 1;
        }
        assert!(
            ShardPlan::analyze(constraints, 4).global_kinds().is_empty(),
            "{name}: a kind is routed to the shared-scope shard"
        );
    }
    assert_eq!(
        checked, 21,
        "five constraints per app, plus the speed constraint"
    );
}
