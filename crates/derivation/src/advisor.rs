//! Index advisor — the paper's future-work item made concrete:
//! "the data that is to be stored could be considered to statically select
//! the optimal index" (§5, Conclusion).
//!
//! Given a workload profile (operation mix and data-set size — obtainable
//! from the application model plus domain knowledge), the advisor scores
//! each index alternative of the Storage feature with a simple cost model
//! and recommends the cheapest, together with the feature-model selection
//! it implies.
//!
//! The cost model is deliberately coarse (constants in *abstract cost
//! units per operation*) — the decision it automates is the same one a
//! domain engineer makes by rule of thumb, and the `queries` bench
//! (`fig1b/point_queries`) validates the relative order of the constants.

use fame_feature_model::{Configuration, FeatureModel};

use crate::appmodel::{AppModel, Confidence, Fact};

/// Expected workload of the application, as operation counts per "period"
/// (absolute scale cancels out; only ratios and `records` matter).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadProfile {
    /// Point lookups.
    pub point_reads: u64,
    /// Inserts + updates.
    pub writes: u64,
    /// Range scans (ordered iteration).
    pub range_scans: u64,
    /// FIFO operations (push/pop of fixed-size records).
    pub fifo_ops: u64,
    /// Expected number of live records.
    pub records: u64,
    /// ROM pressure: `true` when every KiB counts (deeply embedded).
    pub rom_constrained: bool,
}

impl WorkloadProfile {
    /// A read-mostly key/value profile (the Fig. 1b workload).
    pub fn read_mostly(records: u64) -> WorkloadProfile {
        WorkloadProfile {
            point_reads: 90,
            writes: 10,
            range_scans: 0,
            fifo_ops: 0,
            records,
            rom_constrained: false,
        }
    }

    /// Derive a profile from a statically analyzed application: call-site
    /// counts stand in for operation frequencies (the §5 "consider the
    /// data that is to be stored" item, approximated from code shape).
    /// Only facts at `min_tier` or better count, so a
    /// [`Confidence::FlowConfirmed`] profile ignores dead branches and
    /// `cfg`-gated code. `records` is domain knowledge the sources cannot
    /// express; pass the expected live-record count.
    pub fn from_app_model(app: &AppModel, min_tier: Confidence, records: u64) -> WorkloadProfile {
        let calls = |names: &[&str]| -> u64 {
            names
                .iter()
                .map(|n| {
                    let f = Fact::Call((*n).to_string());
                    if app.holds(&f, min_tier) {
                        app.lines_of(&f).len() as u64
                    } else {
                        0
                    }
                })
                .sum()
        };
        let consts = |names: &[&str]| -> u64 {
            names
                .iter()
                .map(|n| {
                    let f = Fact::Constant((*n).to_string());
                    if app.holds(&f, min_tier) {
                        app.lines_of(&f).len() as u64
                    } else {
                        0
                    }
                })
                .sum()
        };
        WorkloadProfile {
            point_reads: calls(&["get", "txn_get"]),
            writes: calls(&["put", "txn_put", "update", "remove", "txn_remove"]),
            range_scans: calls(&["scan", "cursor"]),
            fifo_ops: calls(&["push", "pop", "enqueue", "dequeue"])
                + consts(&["DB_APPEND", "DB_CONSUME"]),
            records,
            rom_constrained: app.holds(
                &Fact::Path("OsTarget".to_string(), "Flash".to_string()),
                min_tier,
            ) || app.holds(&Fact::Call("on_flash".to_string()), min_tier),
        }
    }
}

/// The index alternatives the advisor chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexChoice {
    /// Ordered B+-tree (feature `B+-Tree`).
    BTree,
    /// Unordered list (feature `List`).
    List,
    /// Hash index (Berkeley DB HASH).
    Hash,
    /// Record-number queue (Berkeley DB QUEUE).
    Queue,
}

impl IndexChoice {
    /// Feature name in the Figure 2 model (`None` for the Berkeley DB
    /// access methods that live outside it).
    pub fn fame_feature(self) -> Option<&'static str> {
        match self {
            IndexChoice::BTree => Some("B+-Tree"),
            IndexChoice::List => Some("List"),
            IndexChoice::Hash | IndexChoice::Queue => None,
        }
    }
}

/// A scored recommendation.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Ranked choices, cheapest first.
    pub ranking: Vec<(IndexChoice, f64)>,
    /// Why the winner won (one line per consideration).
    pub rationale: Vec<String>,
}

impl Recommendation {
    /// The winning choice.
    pub fn best(&self) -> IndexChoice {
        self.ranking[0].0
    }
}

/// Score a workload against every index alternative. Lower is better.
pub fn advise(profile: &WorkloadProfile) -> Recommendation {
    let n = profile.records.max(1) as f64;
    let log_n = n.log2().max(1.0);
    let mut rationale = Vec::new();

    // Cost units per operation, validated by the queries bench:
    // B+-tree ops are O(log n) node visits; list reads/writes are O(n)
    // scans; hash is O(1) but unordered; the queue only does FIFO.
    let unsupported = f64::INFINITY;

    let btree = (profile.point_reads + profile.writes) as f64 * log_n
        + profile.range_scans as f64 * (log_n + 10.0)
        + if profile.fifo_ops > 0 {
            profile.fifo_ops as f64 * log_n // FIFO emulated over ordered keys
        } else {
            0.0
        }
        + if profile.rom_constrained { 50.0 } else { 0.0 }; // code-size penalty (~16 KiB)

    // Sequential page scans are cache-friendly: ~8 cells per probe step.
    let list = profile.point_reads as f64 * (n / 8.0)
        + profile.writes as f64 * (n / 8.0)
        + if profile.range_scans > 0 {
            unsupported // no ordered iteration
        } else {
            0.0
        }
        + if profile.fifo_ops > 0 {
            unsupported
        } else {
            0.0
        }
        + if profile.rom_constrained { 2.0 } else { 0.0 };

    let hash = (profile.point_reads + profile.writes) as f64 * 2.0
        + if profile.range_scans > 0 {
            unsupported
        } else {
            0.0
        }
        + if profile.fifo_ops > 0 {
            unsupported
        } else {
            0.0
        }
        + if profile.rom_constrained { 30.0 } else { 0.0 };

    let queue = profile.fifo_ops as f64 * 1.0
        + if profile.point_reads + profile.writes + profile.range_scans > 0 {
            unsupported // keyed access is out
        } else {
            0.0
        }
        + if profile.rom_constrained { 6.0 } else { 0.0 };

    let mut ranking = vec![
        (IndexChoice::BTree, btree),
        (IndexChoice::List, list),
        (IndexChoice::Hash, hash),
        (IndexChoice::Queue, queue),
    ];
    ranking.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are not NaN"));

    if profile.range_scans > 0 {
        rationale.push("range scans require ordered keys: B+-tree only".into());
    }
    if profile.fifo_ops > 0 && profile.point_reads + profile.writes == 0 {
        rationale.push("pure FIFO workload: the queue access method is cheapest".into());
    }
    if profile.rom_constrained && profile.records < 200 {
        rationale.push(format!(
            "tiny data set ({} records) under ROM pressure favours the list",
            profile.records
        ));
    }
    if profile.point_reads > 10 * profile.writes.max(1) && profile.range_scans == 0 {
        rationale.push("point-read-dominated without scans: hashing wins".into());
    }
    rationale.push(format!("winner: {:?}", ranking[0].0));

    Recommendation { ranking, rationale }
}

/// Apply a recommendation to a partial configuration of the Figure 2
/// model (selects the winning index feature when it exists there).
pub fn select_index(
    model: &FeatureModel,
    mut cfg: Configuration,
    choice: IndexChoice,
) -> Configuration {
    if let Some(name) = choice.fame_feature() {
        cfg.select(model.id(name));
    }
    model.complete(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fame_feature_model::models;

    #[test]
    fn range_scans_force_btree() {
        let p = WorkloadProfile {
            point_reads: 10,
            writes: 10,
            range_scans: 5,
            fifo_ops: 0,
            records: 100_000,
            rom_constrained: false,
        };
        assert_eq!(advise(&p).best(), IndexChoice::BTree);
    }

    #[test]
    fn point_heavy_workload_prefers_hash() {
        let p = WorkloadProfile {
            point_reads: 1000,
            writes: 10,
            range_scans: 0,
            fifo_ops: 0,
            records: 100_000,
            rom_constrained: false,
        };
        assert_eq!(advise(&p).best(), IndexChoice::Hash);
    }

    #[test]
    fn tiny_dataset_under_rom_pressure_prefers_list() {
        let p = WorkloadProfile {
            point_reads: 10,
            writes: 5,
            range_scans: 0,
            fifo_ops: 0,
            records: 20,
            rom_constrained: true,
        };
        // At 20 records the O(n) scan is ~10 comparisons — cheaper than
        // hashing overhead plus the bigger code footprint.
        assert_eq!(advise(&p).best(), IndexChoice::List);
    }

    #[test]
    fn pure_fifo_prefers_queue() {
        let p = WorkloadProfile {
            point_reads: 0,
            writes: 0,
            range_scans: 0,
            fifo_ops: 500,
            records: 1_000,
            rom_constrained: true,
        };
        let r = advise(&p);
        assert_eq!(r.best(), IndexChoice::Queue);
        assert!(r.rationale.iter().any(|s| s.contains("FIFO")));
    }

    #[test]
    fn unsupported_choices_rank_last() {
        let p = WorkloadProfile {
            point_reads: 1,
            writes: 1,
            range_scans: 1,
            fifo_ops: 0,
            records: 1_000,
            rom_constrained: false,
        };
        let r = advise(&p);
        // List/Hash/Queue cannot do range scans: infinite cost.
        let last = r.ranking.last().unwrap();
        assert!(last.1.is_infinite());
        assert_eq!(r.ranking[0].0, IndexChoice::BTree);
    }

    #[test]
    fn selection_integrates_with_feature_model() {
        let model = models::fame_dbms();
        let rec = advise(&WorkloadProfile::read_mostly(100));
        let cfg = select_index(&model, Configuration::new(), rec.best());
        assert!(model.validate(&cfg).is_ok());
        if let Some(name) = rec.best().fame_feature() {
            assert!(cfg.is_selected(model.id(name)));
        }
    }

    #[test]
    fn profile_derived_from_app_model() {
        let src = r#"
fn main() {
    let mut config = DbmsConfig::on_flash(flash);
    db.put(&key, &value).unwrap();
    db.put(&key2, &value2).unwrap();
    db.get(&key).unwrap();
    for (k, v) in db.scan(None, None).unwrap() {
        use_row(k, v);
    }
}
"#;
        let app = AppModel::from_source(src);
        let p = WorkloadProfile::from_app_model(&app, Confidence::FlowConfirmed, 10_000);
        assert_eq!(p.writes, 2);
        assert_eq!(p.point_reads, 1);
        assert_eq!(p.range_scans, 1);
        assert!(p.rom_constrained, "on_flash marks the embedded target");
        assert_eq!(
            advise(&p).best(),
            IndexChoice::BTree,
            "scans force the tree"
        );
    }

    #[test]
    fn dead_branch_ops_do_not_skew_the_profile() {
        let src = r#"
int main(void) {
    dbp->get(dbp, NULL, &key, &data, 0);
    if (0) {
        dbp->put(dbp, NULL, &key, &data, DB_APPEND);
        dbp->get(dbp, NULL, &key, &data, DB_CONSUME);
    }
    return 0;
}
"#;
        let app = AppModel::from_source(src);
        let strict = WorkloadProfile::from_app_model(&app, Confidence::FlowConfirmed, 100);
        assert_eq!(strict.writes, 0, "dead put must not count");
        assert_eq!(strict.fifo_ops, 0, "dead queue flags must not count");
        let loose = WorkloadProfile::from_app_model(&app, Confidence::Syntactic, 100);
        assert!(loose.writes > 0, "syntactic tier keeps the old behavior");
    }

    #[test]
    fn read_mostly_profile_is_sane() {
        let p = WorkloadProfile::read_mostly(50_000);
        assert!(p.point_reads > p.writes);
        let r = advise(&p);
        assert_eq!(r.ranking.len(), 4);
        // Costs are sorted ascending.
        assert!(r.ranking.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
