//! Workload definitions and the set-up every run repeats: dataset
//! generation, blocking, the rule pool, and the server.

use crate::model::PoolRule;
use em_blocking::{Blocker, OverlapBlocker};
use em_core::{EvalContext, Rule, SessionConfig};
use em_datagen::{Dataset, Domain};
use em_rulegen::{random_rules, ExtractConfig, ForestConfig, RandomRuleConfig};
use em_server::{serve, AdmissionConfig, ServerConfig, ServerHandle, SessionTemplate};
use em_similarity::TokenScheme;
use em_types::CandidateSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two tenants nudging thresholds and reading on a warm memo.
    TenantsMixed,
    /// Open, bulk load, full run, save, evict and recover, repeatedly.
    SessionLifecycle,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::TenantsMixed, Workload::SessionLifecycle];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TenantsMixed => "tenants-mixed",
            Workload::SessionLifecycle => "session-lifecycle",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seed of the generated dataset and of the forest behind the rule pool.
/// It is fixed, so every run works on the same 42,361 candidate pairs at
/// scale 0.1; the workload seed drives rule selection and the requests.
pub const DATA_SEED: u64 = em_bench::SEED;

/// Size of the rule pool (the paper's 255 products rules).
pub const POOL: usize = 255;

/// Everything that fixes one workload's shape.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Dataset scale relative to the paper's Table 2.
    pub scale: f64,
    /// Rules loaded into each session.
    pub rules: usize,
    /// Concurrent client connections, each with its own session.
    pub clients: usize,
    /// Times the set-up is repeated; `setup_s` is their median.
    pub setup_reps: usize,
    /// Times the epilogue repeats the lifecycle's tail (`run`, `save`,
    /// evict, `attach`) on every session after the measured loop, for
    /// `full_run_s` and `recovery_s` of a workload whose loop has none.
    pub epilogue_reps: usize,
}

impl Spec {
    /// The workload as benchmarked.
    pub fn of(workload: Workload) -> Spec {
        let nproc = nproc();
        match workload {
            Workload::TenantsMixed => Spec {
                workload,
                scale: 0.03,
                rules: 20,
                clients: 2.min(nproc),
                setup_reps: 12,
                epilogue_reps: 20,
            },
            Workload::SessionLifecycle => Spec {
                workload,
                scale: 0.1,
                rules: 240,
                clients: 1,
                setup_reps: 3,
                epilogue_reps: 0,
            },
        }
    }

    /// Executor threads per session: the serial executor, the program's
    /// default. Client threads and admission workers already use every
    /// CPU of a two-CPU host; a pool per session made the same seed's
    /// timings drift further between runs.
    pub fn session_threads(&self) -> usize {
        1
    }

    /// Equal stretches of the measured loop whose edit rates are
    /// averaged: five for the tenants, whose rate falls as the sessions'
    /// histories grow, one for the lifecycle, whose every iteration
    /// starts a fresh session.
    pub fn rate_strata(&self) -> usize {
        match self.workload {
            Workload::TenantsMixed => 5,
            Workload::SessionLifecycle => 1,
        }
    }

    /// Sessions kept in memory by the server: one per client, so that
    /// opening one more evicts the least recently used.
    pub fn max_resident(&self) -> usize {
        self.clients
    }
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What the client side keeps of the set-up: the rule pool and timings.
/// The dataset itself goes to the server in a [`SessionTemplate`], so
/// that the process's resident memory is the server's.
pub struct Data {
    /// Blocked candidate pairs.
    pub n_cands: usize,
    /// The rule pool, in pool order.
    pub pool: Vec<PoolRule>,
    /// Time spent generating the tables.
    pub datagen: Duration,
    /// Time spent blocking.
    pub blocking: Duration,
    /// Time spent interning the feature menu and building the rule pool.
    pub rulegen: Duration,
}

/// Generates the products dataset at `spec.scale`, blocks it and builds
/// the rule pool as the paper-figure binaries do: forest rules first,
/// seeded random rules to fill the pool. Returns the pool and the
/// template server sessions start from.
///
/// `extract_rules` ranks rules by leaf support but breaks ties in
/// `HashMap` order, so its top 255 differed from process to process. The
/// pool therefore takes every forest rule and keeps the 255 whose text
/// hashes lowest: the same rules, in the same order, in every process.
pub fn prepare(spec: &Spec) -> (Data, SessionTemplate) {
    let t = Instant::now();
    let ds = Domain::Products.generate(DATA_SEED, spec.scale);
    let datagen = t.elapsed();

    let t = Instant::now();
    let cands = block(&ds);
    let labels = ds.label_candidates(&cands);
    let blocking = t.elapsed();

    let t = Instant::now();
    let mut ctx = EvalContext::from_tables(ds.table_a.clone(), ds.table_b.clone());
    let features = em_bench::feature_menu_extended(&mut ctx, Domain::Products);
    let mut rules = em_rulegen::learn_rules(
        &ctx,
        &cands,
        &labels,
        &features,
        &ForestConfig {
            n_trees: 128,
            seed: DATA_SEED,
            ..Default::default()
        },
        &ExtractConfig {
            min_purity: 0.85,
            min_support: 2,
            max_rules: 0,
        },
    );
    let text_of = |rule: &Rule| {
        rule.predicates()
            .iter()
            .map(|p| format!("{} {} {}", ctx.feature_name(p.feature), p.op, p.threshold))
            .collect::<Vec<_>>()
            .join(" AND ")
    };
    rules.sort_by_cached_key(|r| fnv1a(&text_of(r)));
    rules.truncate(POOL);
    if rules.len() < POOL {
        rules.extend(random_rules(
            &features,
            &RandomRuleConfig {
                n_rules: POOL - rules.len(),
                ..Default::default()
            },
            DATA_SEED ^ 0xF111,
        ));
    }
    let pool = rules
        .into_iter()
        .map(|rule| PoolRule {
            text: text_of(&rule),
            rule,
        })
        .collect();
    let rulegen = t.elapsed();

    let config = SessionConfig {
        n_threads: spec.session_threads(),
        ..SessionConfig::default()
    };
    let data = Data {
        n_cands: cands.len(),
        pool,
        datagen,
        blocking,
        rulegen,
    };
    drop(ctx);
    let template = SessionTemplate::new(ds.table_a, ds.table_b, cands, labels, config);
    (data, template)
}

/// The products blocker of the paper-figure binaries.
fn block(ds: &Dataset) -> CandidateSet {
    OverlapBlocker::new(Domain::Products.title_attr(), TokenScheme::Whitespace, 2)
        .block(&ds.table_a, &ds.table_b)
        .expect("the products schema has a title attribute")
}

/// The dataset again, generated and blocked in-process, for the
/// correctness oracle and the kernel probe after the measured loop.
pub fn reference(spec: &Spec) -> (EvalContext, CandidateSet) {
    let ds = Domain::Products.generate(DATA_SEED, spec.scale);
    let cands = block(&ds);
    (EvalContext::from_tables(ds.table_a, ds.table_b), cands)
}

/// 64-bit FNV-1a: a hash that is the same in every process.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Starts a server over `template` whose sessions live under `root`,
/// with as many admission workers as CPUs.
pub fn start(spec: &Spec, template: SessionTemplate, root: &Path) -> ServerHandle {
    serve(
        template,
        ServerConfig {
            store_root: Some(root.to_path_buf()),
            max_resident: spec.max_resident(),
            max_conns: spec.clients + 2,
            admission: AdmissionConfig {
                workers: nproc(),
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback port")
}
