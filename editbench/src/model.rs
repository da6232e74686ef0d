//! The client-side model of one session's rule program, and the seeded
//! edit generator built on it.
//!
//! The benchmark writes wire lines without reading the server's replies,
//! so it must know which rule and predicate ids the session holds. The
//! session mints ids from counters in [`MatchingFunction`], and `undo`
//! of a removal re-adds with fresh ids; [`Model`] replays every edit the
//! benchmark sends on its own `MatchingFunction`, so it mints the same
//! ids in the same order.

use em_core::{MatchingFunction, Rule, RuleId};
use rand::rngs::StdRng;
use rand::Rng;

/// One pool rule: its text for the wire and its parsed form for the model.
#[derive(Debug, Clone)]
pub struct PoolRule {
    /// The rule in the rule language, as sent after `add`.
    pub text: String,
    /// The same rule, parsed.
    pub rule: Rule,
}

/// The six incremental edit classes of the paper's Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A predicate is added to a rule.
    AddPredicate,
    /// A predicate is removed from a rule.
    RemovePredicate,
    /// A threshold moves in its stricter direction.
    Tighten,
    /// A threshold moves in its looser direction.
    Relax,
    /// A rule is added.
    AddRule,
    /// A rule is removed.
    RemoveRule,
}

impl Class {
    /// Every class, in the order Fig. 6 lists them.
    pub const ALL: [Class; 6] = [
        Class::AddPredicate,
        Class::RemovePredicate,
        Class::Tighten,
        Class::Relax,
        Class::AddRule,
        Class::RemoveRule,
    ];

    /// The metric-name stem of the class.
    pub fn name(self) -> &'static str {
        match self {
            Class::AddPredicate => "add_predicate",
            Class::RemovePredicate => "remove_predicate",
            Class::Tighten => "tighten",
            Class::Relax => "relax",
            Class::AddRule => "add_rule",
            Class::RemoveRule => "remove_rule",
        }
    }
}

/// The five edits an analyst makes in the Fig. 6 protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// `rmpred`
    RemovePredicate,
    /// `set` in the stricter direction
    Tighten,
    /// `set` in the looser direction
    Relax,
    /// `rm`
    RemoveRule,
    /// `add` of a spare pool rule
    AddRule,
}

/// One edit, addressed by position so it can be re-rendered after ids
/// change.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Remove predicate `pred` of the rule at `rule`.
    RemovePredicate {
        /// Rule position in evaluation order.
        rule: usize,
        /// Predicate position within the rule.
        pred: usize,
    },
    /// Set a predicate's threshold.
    SetThreshold {
        /// Rule position in evaluation order.
        rule: usize,
        /// Predicate position within the rule.
        pred: usize,
        /// The new threshold.
        value: f64,
        /// Whether the new threshold is stricter than the old one.
        tighten: bool,
    },
    /// Remove the rule at `rule`.
    RemoveRule {
        /// Rule position in evaluation order.
        rule: usize,
    },
    /// Add the pool rule at `pool` index.
    AddRule {
        /// Index into the pool.
        pool: usize,
    },
}

impl Step {
    /// The classes of the edit and of the `undo` that reverts it.
    pub fn classes(&self) -> (Class, Class) {
        match self {
            Step::RemovePredicate { .. } => (Class::RemovePredicate, Class::AddPredicate),
            Step::SetThreshold { tighten: true, .. } => (Class::Tighten, Class::Relax),
            Step::SetThreshold { tighten: false, .. } => (Class::Relax, Class::Tighten),
            Step::RemoveRule { .. } => (Class::RemoveRule, Class::AddRule),
            Step::AddRule { .. } => (Class::AddRule, Class::RemoveRule),
        }
    }
}

/// Mirror of one session's matching function; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Model {
    func: MatchingFunction,
}

impl Model {
    /// An empty model (a freshly opened session).
    pub fn new() -> Self {
        Model::default()
    }

    /// Mirrors `add <rule>`.
    pub fn add(&mut self, rule: &Rule) {
        self.func
            .add_rule(rule.clone())
            .expect("pool rules are non-empty");
    }

    /// The wire line for `step` under the current ids.
    pub fn line(&self, step: &Step, pool: &[PoolRule]) -> String {
        let rules = self.func.rules();
        match *step {
            Step::RemovePredicate { rule, pred } => {
                format!("rmpred {}", rules[rule].preds[pred].id)
            }
            Step::SetThreshold {
                rule, pred, value, ..
            } => format!("set {} {}", rules[rule].preds[pred].id, value),
            Step::RemoveRule { rule } => format!("rm {}", rules[rule].id),
            Step::AddRule { pool: i } => format!("add {}", pool[i].text),
        }
    }

    /// Mirrors `step` followed by `undo`: the rule set ends as it began,
    /// but removals come back under fresh ids at their old positions.
    pub fn apply_pair(&mut self, step: &Step, pool: &[PoolRule]) {
        let f = &mut self.func;
        match *step {
            Step::RemovePredicate { rule, pred } => {
                let (rid, bp) = {
                    let r = &f.rules()[rule];
                    (r.id, r.preds[pred])
                };
                f.remove_predicate(bp.id).expect("predicate exists");
                let new = f.add_predicate(rid, bp.pred).expect("rule exists");
                let mut order: Vec<_> = f.rules()[rule]
                    .preds
                    .iter()
                    .map(|p| p.id)
                    .filter(|&p| p != new)
                    .collect();
                order.insert(pred.min(order.len()), new);
                f.set_predicate_order(rid, &order).expect("same predicates");
            }
            // Set and restore: the program and its ids are unchanged.
            Step::SetThreshold { .. } => {}
            Step::RemoveRule { rule } => {
                let r = f.rules()[rule].clone();
                f.remove_rule(r.id).expect("rule exists");
                let new = f
                    .add_rule(Rule::with(r.preds.iter().map(|bp| bp.pred)))
                    .expect("non-empty rule");
                let mut order: Vec<RuleId> = f
                    .rules()
                    .iter()
                    .map(|r| r.id)
                    .filter(|&r| r != new)
                    .collect();
                order.insert(rule.min(order.len()), new);
                f.set_rule_order(&order).expect("same rules");
            }
            Step::AddRule { pool: i } => {
                let rid = f.add_rule(pool[i].rule.clone()).expect("non-empty rule");
                f.remove_rule(rid).expect("rule was just added");
            }
        }
    }

    /// Draws a random edit of `kind`; `add` picks a pool index from
    /// `spare`, the rules not loaded. Threshold moves follow the Fig. 6
    /// protocol: a step of 0.1 to 0.5, clamped to `[0, 1]`. Without a
    /// rule of two predicates, `rmpred` becomes a tighten.
    pub fn draw(&self, rng: &mut StdRng, kind: EditKind, spare: std::ops::Range<usize>) -> Step {
        let rules = self.func.rules();
        let rule = rng.gen_range(0..rules.len());
        match kind {
            EditKind::RemovePredicate => {
                let removable: Vec<usize> = (0..rules.len())
                    .filter(|&i| rules[i].preds.len() >= 2)
                    .collect();
                if removable.is_empty() {
                    let delta = 0.1 * rng.gen_range(1..=5) as f64;
                    return self.nudge(rng, delta, true);
                }
                let rule = removable[rng.gen_range(0..removable.len())];
                let pred = rng.gen_range(0..rules[rule].preds.len());
                Step::RemovePredicate { rule, pred }
            }
            EditKind::Tighten | EditKind::Relax => {
                let delta = 0.1 * rng.gen_range(1..=5) as f64;
                self.nudge(rng, delta, kind == EditKind::Tighten)
            }
            EditKind::RemoveRule => Step::RemoveRule { rule },
            EditKind::AddRule => Step::AddRule {
                pool: rng.gen_range(spare),
            },
        }
    }

    /// A threshold move of `delta` on a random predicate, in the stricter
    /// (`tighten`) or looser direction.
    pub fn nudge(&self, rng: &mut StdRng, delta: f64, tighten: bool) -> Step {
        let rules = self.func.rules();
        let rule = rng.gen_range(0..rules.len());
        let pred = rng.gen_range(0..rules[rule].preds.len());
        let p = rules[rule].preds[pred].pred;
        let up = p.op.higher_threshold_is_stricter() == tighten;
        let value = if up {
            (p.threshold + delta).min(1.0)
        } else {
            (p.threshold - delta).max(0.0)
        };
        Step::SetThreshold {
            rule,
            pred,
            value,
            tighten,
        }
    }
}
