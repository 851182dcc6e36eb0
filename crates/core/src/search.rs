//! Top-k answer search (paper, Section 5 "Search").
//!
//! "The last step aims at generating the most relevant solutions by
//! combining the paths in the clusters built in the previous step …
//! generating directly the top-k solutions by trying to minimize the
//! number of combinations between paths."
//!
//! We implement the combination as a best-first branch-and-bound over
//! prefix assignments: clusters are assigned in `PQ` order; a state's
//! priority is
//!
//! ```text
//! f(state) = Λ(assigned) + Ψ(assigned pairs)           (exact so far)
//!          + Σ_{unassigned clusters} best λ            (admissible bound)
//! ```
//!
//! Expansion uses *lazy successors* (the classic top-k join scheme):
//! popping a state pushes at most two new states — its **child** (the
//! next cluster assigned its best entry) and its **sibling** (the same
//! prefix with the last choice advanced to the next-best entry). Since
//! cluster entries are sorted by λ and penalties are non-negative,
//! every state's priority lower-bounds every assignment in its
//! subtree, so completed states pop in non-decreasing score order —
//! the *monotone emission* property behind the paper's reciprocal-rank
//! experiment — while the frontier stays linear in the number of pops
//! instead of multiplying by cluster width.
//!
//! States live in an arena as parent-pointer nodes (a child or sibling
//! shares its prefix with the state it came from, so a push stores one
//! choice, not a prefix copy). Every frontier insertion appends a node,
//! so a node's id is its insertion sequence number and the frontier
//! heap holds nothing but one packed integer key per entry; a popped
//! state's prefix is decoded once into a reused buffer. `|χ|` is a merge over the index's sorted node
//! sets, computed directly on every use.

use crate::answer::{Answer, ChosenPath};
use crate::cluster::Cluster;
use crate::deadline::QueryBudget;
use crate::igraph::IntersectionGraph;
use crate::params::ScoreParams;
use crate::qpath::QueryPath;
use crate::score::{chi_count_sorted, PairConformity, ScoreBreakdown};
use path_index::IndexLike;
use std::borrow::Cow;
use std::collections::BinaryHeap;

/// Limits for the combination search.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Maximum number of state expansions before giving up (the
    /// already-emitted answers are returned with `truncated = true`).
    pub max_expansions: usize,
    /// Cap on the frontier size; the worst states are discarded when it
    /// overflows (can only affect answers beyond the cap's horizon).
    pub max_frontier: usize,
    /// Emit only answers with *distinct data-path sets*: combinations
    /// that assemble the same set of paths (and therefore the same
    /// answer subgraph) as an already emitted answer are skipped.
    /// An answer-construction improvement the paper lists as future
    /// work; off by default to match the paper's enumeration.
    pub distinct_paths: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_expansions: 200_000,
            max_frontier: 1 << 20,
            distinct_paths: false,
        }
    }
}

/// Why the exact combination search stopped before exhausting the
/// space (recorded in [`SearchOutcome`] and the per-query
/// [`crate::ExplainTrace`]). The *first* limit hit wins — a frontier
/// overflow followed by the expansion budget reports the overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// [`SearchConfig::max_expansions`] was reached: the budget for
    /// state pops ran out before the space was exhausted.
    ExpansionLimit,
    /// [`SearchConfig::max_frontier`] overflowed and the worst frontier
    /// states were discarded, so later answers may be missing.
    FrontierOverflow,
    /// The query's wall-clock budget ([`crate::QueryBudget`]) expired;
    /// the answers emitted so far plus a greedy completion of the
    /// frontier are returned as the best-effort partial top-k.
    DeadlineExceeded,
    /// The query's [`crate::CancelToken`] fired; the partial result is
    /// assembled exactly as for a deadline expiry.
    Cancelled,
}

impl TruncationReason {
    /// Stable machine-readable name (used in the EXPLAIN trace JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            TruncationReason::ExpansionLimit => "expansion_limit",
            TruncationReason::FrontierOverflow => "frontier_overflow",
            TruncationReason::DeadlineExceeded => "deadline_exceeded",
            TruncationReason::Cancelled => "cancelled",
        }
    }
}

/// Work counters of one search: plain integer increments in the
/// expansion loop, no clock reads. Reported in the EXPLAIN trace as
/// `"search":{…}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// New states put on the frontier (children and siblings).
    pub pushes: u64,
    /// Popped states put back on the frontier: with their own bound
    /// after a sibling bound set their priority, or on a budget or
    /// expansion-limit stop.
    pub reinserts: u64,
    /// `|χ|` merge-intersections computed (pricing, answer
    /// materialization and the greedy fill).
    pub chi_lookups: u64,
    /// Largest frontier size reached.
    pub peak_frontier: u64,
}

/// The search result.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Up to `k` answers. While `truncated` is `false` these are the
    /// exact top-k in non-decreasing score order; after truncation the
    /// tail is filled by greedy completion of the best frontier states
    /// (still sorted, but optimality is no longer guaranteed).
    pub answers: Vec<Answer>,
    /// Number of expansions performed.
    pub expansions: usize,
    /// `true` if a limit stopped the exact search early.
    pub truncated: bool,
    /// Which limit stopped the search (`None` while `truncated` is
    /// `false`).
    pub truncation: Option<TruncationReason>,
    /// Pushes, re-inserts, χ lookups and peak frontier of this search.
    pub counters: SearchCounters,
}

/// A frontier state in the arena: clusters `0..depth` are assigned, the
/// last one to `choice`; the earlier choices are found by following
/// `parent`. A re-inserted state is appended again as a copy, so node
/// ids follow insertion order.
///
/// A state *covers* two sets of assignments: the completions of its own
/// prefix, and (until the sibling is pushed) the subtree where its last
/// choice is advanced to later cluster entries. Its heap priority is
/// the minimum of the two subtrees' lower bounds; popping a state whose
/// priority came from the sibling bound pushes the sibling and
/// re-inserts the state with its own (tighter) bound.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Arena id of the state assigning clusters `0..depth - 1`
    /// ([`ROOT`] at depth 1).
    parent: u32,
    /// Entry index for cluster `depth - 1`; [`DELETED`] encodes
    /// deletion (only used for empty clusters).
    choice: u32,
    depth: u32,
    /// `true` once the sibling subtree has its own heap entry.
    sibling_pushed: bool,
    /// Exact cost of the prefix *excluding* the last choice — the
    /// sibling successor re-prices only the last slot.
    g_before_last: f64,
    /// Exact cost of the assigned prefix (Λ + Ψ among assigned).
    g: f64,
}

const DELETED: u32 = u32::MAX;
const ROOT: u32 = u32::MAX;

/// Map `x` to a `u64` whose unsigned order is [`f64::total_cmp`]'s.
#[inline]
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`total_order_bits`].
#[inline]
fn from_total_order_bits(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// The frontier entry of arena node `id` as one integer, largest first
/// (`BinaryHeap` is a max-heap): lowest priority (`total_cmp`), then
/// *deeper* states (drive toward completion instead of fanning out
/// shallow siblings), then older insertions (smaller ids). The high
/// word is the inverted total-order priority; the low word packs the
/// depth above the inverted id.
#[inline]
fn pack_key(priority: f64, depth: u32, id: u32) -> u128 {
    let low = u64::from(depth) << 32 | u64::from(!id);
    (u128::from(!total_order_bits(priority)) << 64) | u128::from(low)
}

/// The priority a key was packed with.
#[inline]
fn key_priority(key: u128) -> f64 {
    from_total_order_bits(!((key >> 64) as u64))
}

/// The arena id a key was packed with.
#[inline]
fn key_node(key: u128) -> u32 {
    !(key as u32)
}

/// Write the choices of arena state `id` (of `depth` assigned clusters)
/// into `out`, which ends up exactly `depth` long.
fn decode_choices(nodes: &[Node], mut id: u32, depth: usize, out: &mut Vec<u32>) {
    out.resize(depth, 0);
    for slot in out.iter_mut().rev() {
        let node = &nodes[id as usize];
        *slot = node.choice;
        id = node.parent;
    }
}

/// A state drained from the frontier for the anytime greedy fill.
struct Partial {
    choices: Vec<u32>,
    g: f64,
}

/// Expansion pops between polls of an attached [`QueryBudget`] (the
/// first pop always polls, so an already-expired budget does no work).
/// One poll is a clock read — at this interval the amortized cost is
/// well under the cost of a single expansion.
pub const BUDGET_CHECK_INTERVAL: u32 = 16;

/// A resumable combination search: answers pop lazily in
/// non-decreasing score order. Owns or borrows the decomposition
/// artefacts (`PQ`, IG, clusters) and borrows the index.
///
/// Obtained from [`crate::SamaEngine::answer_stream`] or built directly;
/// [`search_top_k`] is the batch wrapper.
pub struct SearchStream<'a, I: IndexLike> {
    qpaths: Cow<'a, [QueryPath]>,
    ig: Cow<'a, IntersectionGraph>,
    clusters: Cow<'a, [Cluster]>,
    index: &'a I,
    params: ScoreParams,
    config: SearchConfig,
    /// Suffix sums of per-cluster lower bounds.
    bound: Vec<f64>,
    heap: BinaryHeap<u128>,
    /// Every frontier insertion, in order; a node's prefix is its
    /// parent chain.
    nodes: Vec<Node>,
    /// The choices of the state being expanded, decoded from the arena
    /// once per pop and reused across pops.
    prefix: Vec<u32>,
    counters: SearchCounters,
    emitted_sets: Vec<Vec<u32>>,
    expansions: usize,
    truncated: bool,
    truncation: Option<TruncationReason>,
    /// Deadline/cancellation budget; unlimited by default, in which
    /// case no clock is ever read.
    budget: QueryBudget,
    /// Pops until the next budget poll (0 = poll on the next pop, so
    /// an already-expired budget is noticed before any work).
    budget_countdown: u32,
}

impl<'a, I: IndexLike> SearchStream<'a, I> {
    /// Start a search over pre-built decomposition artefacts.
    pub fn new(
        qpaths: Vec<QueryPath>,
        ig: IntersectionGraph,
        clusters: Vec<Cluster>,
        index: &'a I,
        params: ScoreParams,
        config: SearchConfig,
    ) -> Self {
        Self::from_parts(
            Cow::Owned(qpaths),
            Cow::Owned(ig),
            Cow::Owned(clusters),
            index,
            params,
            config,
        )
    }

    fn from_parts(
        qpaths: Cow<'a, [QueryPath]>,
        ig: Cow<'a, IntersectionGraph>,
        clusters: Cow<'a, [Cluster]>,
        index: &'a I,
        params: ScoreParams,
        config: SearchConfig,
    ) -> Self {
        debug_assert_eq!(qpaths.len(), clusters.len());
        let n = clusters.len();
        let mut bound = vec![0.0f64; n + 1];
        for i in (0..n).rev() {
            bound[i] = bound[i + 1] + clusters[i].best_lambda();
        }
        let mut stream = SearchStream {
            qpaths,
            ig,
            clusters,
            index,
            params,
            config,
            bound,
            heap: BinaryHeap::new(),
            nodes: Vec::new(),
            prefix: Vec::new(),
            counters: SearchCounters::default(),
            emitted_sets: Vec::new(),
            expansions: 0,
            truncated: false,
            truncation: None,
            budget: QueryBudget::unlimited(),
            budget_countdown: 0,
        };
        if n > 0 {
            let first = first_choice(&stream.clusters[0]);
            stream.push_state(ROOT, 0, 0.0, first);
        }
        stream
    }

    /// Attach a deadline/cancellation budget, polled on the first
    /// expansion pop and every [`BUDGET_CHECK_INTERVAL`]-th thereafter.
    /// The default unlimited budget costs nothing.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self.budget_countdown = 0;
        self
    }

    /// The decomposed query paths.
    pub fn query_paths(&self) -> &[QueryPath] {
        &self.qpaths
    }

    /// The intersection query graph.
    pub fn intersection_graph(&self) -> &IntersectionGraph {
        &self.ig
    }

    /// The clusters, in `PQ` order.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Expansions performed so far.
    pub fn expansions(&self) -> usize {
        self.expansions
    }

    /// Pushes, re-inserts, χ lookups and peak frontier so far.
    pub fn counters(&self) -> SearchCounters {
        self.counters
    }

    /// `true` once a limit has stopped the exact search (no further
    /// answers will be produced by [`SearchStream::next_answer`]).
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Which limit stopped the exact search, if one did. The first
    /// limit hit is kept when both eventually trigger.
    pub fn truncation_reason(&self) -> Option<TruncationReason> {
        self.truncation
    }

    /// Record `reason` the first time a limit trips.
    fn mark_truncated(&mut self, reason: TruncationReason) {
        self.truncated = true;
        self.truncation.get_or_insert(reason);
    }

    /// The sorted multiset of data paths an assignment uses (for
    /// `distinct_paths`).
    fn path_set_key(&self, choices: &[u32]) -> Vec<u32> {
        let mut key: Vec<u32> = choices
            .iter()
            .enumerate()
            .map(|(slot, &c)| {
                if c == DELETED {
                    u32::MAX
                } else {
                    self.clusters[slot].entries[c as usize].path_id.0
                }
            })
            .collect();
        key.sort_unstable();
        key
    }

    /// Append `node` to the arena and put it on the frontier.
    fn enqueue(&mut self, priority: f64, node: Node) {
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id != ROOT)
            .expect("search arena exceeds u32 ids");
        self.nodes.push(node);
        self.heap.push(pack_key(priority, node.depth, id));
        self.counters.peak_frontier = self.counters.peak_frontier.max(self.heap.len() as u64);
    }

    /// Push the state that extends arena state `parent` (whose choices
    /// are `self.prefix[..slot]`, exact cost `g_prefix`) with `choice`
    /// for cluster `slot`.
    fn push_state(&mut self, parent: u32, slot: usize, g_prefix: f64, choice: u32) {
        let g = g_prefix
            + choice_cost(
                &self.prefix[..slot],
                choice,
                slot,
                &self.ig,
                &self.clusters,
                self.index,
                &self.params,
                &mut self.counters.chi_lookups,
            );
        let own = g + self.bound[slot + 1];
        // The sibling subtree's bound: the next entry's λ with zero
        // conformity penalty (deletion has no successor entry).
        let entries = &self.clusters[slot].entries;
        let next = choice as usize + 1;
        let priority = if choice != DELETED && next < entries.len() {
            own.min(g_prefix + entries[next].lambda() + self.bound[slot + 1])
        } else {
            own
        };
        self.counters.pushes += 1;
        self.enqueue(
            priority,
            Node {
                parent,
                choice,
                depth: slot as u32 + 1,
                sibling_pushed: false,
                g_before_last: g_prefix,
                g,
            },
        );
    }

    /// Put a popped state back under `priority` (a re-insert).
    fn reinsert(&mut self, priority: f64, id: u32) {
        self.counters.reinserts += 1;
        self.enqueue(priority, self.nodes[id as usize]);
    }

    /// Produce the next answer in non-decreasing score order, or `None`
    /// when the space is exhausted or a budget was hit (check
    /// [`SearchStream::is_truncated`] to tell the two apart).
    pub fn next_answer(&mut self) -> Option<Answer> {
        let n = self.clusters.len();
        if n == 0 || self.truncated {
            return None;
        }
        while let Some(key) = self.heap.pop() {
            sama_obs::fault::point("search.expand");
            let (priority, id) = (key_priority(key), key_node(key));
            if !self.budget.is_unlimited() {
                let due = self.budget_countdown == 0;
                self.budget_countdown = if due {
                    BUDGET_CHECK_INTERVAL - 1
                } else {
                    self.budget_countdown - 1
                };
                if due {
                    if let Some(reason) = self.budget.exceeded() {
                        // Put the state back so the anytime fallback can
                        // greedily complete the frontier.
                        self.reinsert(priority, id);
                        self.mark_truncated(reason);
                        return None;
                    }
                }
            }
            if self.expansions >= self.config.max_expansions {
                // Put the state back so the anytime fallback can use it.
                self.reinsert(priority, id);
                self.mark_truncated(TruncationReason::ExpansionLimit);
                return None;
            }
            self.expansions += 1;

            let node = self.nodes[id as usize];
            let t = node.depth as usize;
            let own = node.g + self.bound[t];
            let mut decoded = false;

            // Materialize the sibling subtree as its own heap entry (once).
            if !node.sibling_pushed {
                let last_slot = t - 1;
                if node.choice != DELETED
                    && (node.choice as usize + 1) < self.clusters[last_slot].entries.len()
                {
                    decode_choices(&self.nodes, id, t, &mut self.prefix);
                    decoded = true;
                    self.push_state(node.parent, last_slot, node.g_before_last, node.choice + 1);
                }
                self.nodes[id as usize].sibling_pushed = true;
            }

            // If the sibling bound drove the priority, this state itself
            // is not yet proven minimal: re-insert with its own bound.
            if priority + 1e-12 < own {
                self.reinsert(own, id);
                continue;
            }

            if !decoded {
                decode_choices(&self.nodes, id, t, &mut self.prefix);
            }
            if t == n {
                let emit = if self.config.distinct_paths {
                    let key = self.path_set_key(&self.prefix);
                    if self.emitted_sets.contains(&key) {
                        false
                    } else {
                        self.emitted_sets.push(key);
                        true
                    }
                } else {
                    true
                };
                if emit {
                    return Some(materialize(
                        &self.prefix,
                        node.g,
                        &self.qpaths,
                        &self.ig,
                        &self.clusters,
                        self.index,
                        &self.params,
                        &mut self.counters.chi_lookups,
                    ));
                }
            } else {
                // Child: assign the next cluster its best entry.
                let first = first_choice(&self.clusters[t]);
                self.push_state(id, t, node.g, first);
            }

            if self.heap.len() > self.config.max_frontier {
                self.shrink_frontier(self.config.max_frontier / 2);
                self.mark_truncated(TruncationReason::FrontierOverflow);
            }
        }
        None
    }

    /// Drain up to `budget` frontier states, decoded into owned choices
    /// (used by the batch wrapper's anytime fill after truncation).
    fn drain_frontier(&mut self, budget: usize) -> Vec<Partial> {
        let mut frontier = Vec::with_capacity(budget);
        while frontier.len() < budget {
            let Some(key) = self.heap.pop() else { break };
            let id = key_node(key);
            let node = &self.nodes[id as usize];
            let mut choices = Vec::new();
            decode_choices(&self.nodes, id, node.depth as usize, &mut choices);
            frontier.push(Partial { choices, g: node.g });
        }
        frontier
    }

    /// Keep the best `keep` frontier items, dropping the rest (their
    /// arena nodes stay: surviving states may descend from them).
    fn shrink_frontier(&mut self, keep: usize) {
        let mut kept: Vec<u128> = Vec::with_capacity(keep);
        for _ in 0..keep {
            match self.heap.pop() {
                Some(item) => kept.push(item),
                None => break,
            }
        }
        self.heap.clear();
        self.heap.extend(kept);
    }

    /// Greedily complete `frontier` states (per remaining cluster, the
    /// entry with the cheapest incremental cost) and append the
    /// results, deduplicated and sorted, to `outcome.answers` — the
    /// anytime fallback after truncation.
    fn fill_greedy(&mut self, outcome: &mut SearchOutcome, frontier: Vec<Partial>, k: usize) {
        let n = self.clusters.len();
        let lookups = &mut self.counters.chi_lookups;
        let mut filled: Vec<Partial> = Vec::new();
        for mut state in frontier {
            while state.choices.len() < n {
                let slot = state.choices.len();
                let cluster = &self.clusters[slot];
                let mut cost = |c: u32| {
                    choice_cost(
                        &state.choices,
                        c,
                        slot,
                        &self.ig,
                        &self.clusters,
                        self.index,
                        &self.params,
                        lookups,
                    )
                };
                let (best_choice, best_cost) = if cluster.is_empty() {
                    (DELETED, cost(DELETED))
                } else {
                    // Entries are λ-sorted; scanning a bounded prefix finds
                    // a low-penalty choice without quadratic blowup.
                    (0..cluster.entries.len().min(32) as u32)
                        .map(|c| (c, cost(c)))
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .expect("cluster is non-empty")
                };
                state.g += best_cost;
                state.choices.push(best_choice);
            }
            filled.push(state);
        }
        filled.sort_by(|a, b| a.g.total_cmp(&b.g));
        let mut added: Vec<&[u32]> = Vec::new();
        for state in &filled {
            if outcome.answers.len() >= k {
                break;
            }
            if added.contains(&state.choices.as_slice()) {
                continue;
            }
            added.push(&state.choices);
            outcome.answers.push(materialize(
                &state.choices,
                state.g,
                &self.qpaths,
                &self.ig,
                &self.clusters,
                self.index,
                &self.params,
                lookups,
            ));
        }
    }
}

impl<I: IndexLike> Iterator for SearchStream<'_, I> {
    type Item = Answer;

    fn next(&mut self) -> Option<Answer> {
        self.next_answer()
    }
}

/// Run the top-k combination search (the batch wrapper over
/// [`SearchStream`], with the anytime greedy fill on truncation).
pub fn search_top_k<I: IndexLike>(
    qpaths: &[QueryPath],
    ig: &IntersectionGraph,
    clusters: &[Cluster],
    index: &I,
    params: &ScoreParams,
    k: usize,
    config: &SearchConfig,
) -> SearchOutcome {
    search_top_k_budgeted(
        qpaths,
        ig,
        clusters,
        index,
        params,
        k,
        config,
        &QueryBudget::unlimited(),
    )
}

/// [`search_top_k`] under a deadline/cancellation budget: when the
/// budget expires mid-search, the answers emitted so far plus a greedy
/// completion of the best frontier states are returned, flagged with
/// the budget's [`TruncationReason`]. An unlimited budget adds zero
/// cost (no clock is read).
#[allow(clippy::too_many_arguments)]
pub fn search_top_k_budgeted<I: IndexLike>(
    qpaths: &[QueryPath],
    ig: &IntersectionGraph,
    clusters: &[Cluster],
    index: &I,
    params: &ScoreParams,
    k: usize,
    config: &SearchConfig,
    budget: &QueryBudget,
) -> SearchOutcome {
    let mut outcome = SearchOutcome {
        answers: Vec::with_capacity(k.min(1024)),
        expansions: 0,
        truncated: false,
        truncation: None,
        counters: SearchCounters::default(),
    };
    if clusters.is_empty() || k == 0 {
        return outcome;
    }
    let mut stream = SearchStream::from_parts(
        Cow::Borrowed(qpaths),
        Cow::Borrowed(ig),
        Cow::Borrowed(clusters),
        index,
        *params,
        *config,
    )
    .with_budget(budget.clone());
    while outcome.answers.len() < k {
        match stream.next_answer() {
            Some(answer) => outcome.answers.push(answer),
            None => break,
        }
    }
    outcome.expansions = stream.expansions();
    outcome.truncated = stream.is_truncated();
    outcome.truncation = stream.truncation_reason();
    if outcome.truncated && outcome.answers.len() < k {
        // Anytime fallback: greedily complete the best frontier states
        // so the caller still receives k answers (the paper's search is
        // itself a bounded heuristic combination).
        let budget = (k - outcome.answers.len()).saturating_mul(2);
        let frontier = stream.drain_frontier(budget);
        stream.fill_greedy(&mut outcome, frontier, k);
    }
    outcome.counters = stream.counters();
    outcome
}

/// The best entry of a cluster (deletion when empty).
fn first_choice(cluster: &Cluster) -> u32 {
    if cluster.is_empty() {
        DELETED
    } else {
        0
    }
}

/// Exact cost contribution of assigning `choice` to cluster `slot`
/// given the `prefix` choices of clusters `0..slot`: the entry's λ plus
/// conformity penalties against assigned IG neighbors.
#[allow(clippy::too_many_arguments)]
fn choice_cost<I: IndexLike + ?Sized>(
    prefix: &[u32],
    choice: u32,
    slot: usize,
    ig: &IntersectionGraph,
    clusters: &[Cluster],
    index: &I,
    params: &ScoreParams,
    chi_lookups: &mut u64,
) -> f64 {
    let cluster = &clusters[slot];
    let mut cost = if choice == DELETED {
        cluster.deletion_lambda
    } else {
        cluster.entries[choice as usize].lambda()
    };
    for edge in ig.earlier_edges_of(slot) {
        let other = if edge.qi == slot { edge.qj } else { edge.qi };
        debug_assert!(other < slot);
        if other >= prefix.len() {
            continue;
        }
        let chi_p = pair_chi_p(
            prefix[other],
            other,
            choice,
            slot,
            clusters,
            index,
            chi_lookups,
        );
        cost += crate::score::conformity_penalty(edge.chi_q(), chi_p, params.e);
    }
    cost
}

/// `|χ(p_i, p_j)|` for two cluster choices (0 if either is deleted).
fn pair_chi_p<I: IndexLike + ?Sized>(
    choice_a: u32,
    cluster_a: usize,
    choice_b: u32,
    cluster_b: usize,
    clusters: &[Cluster],
    index: &I,
    chi_lookups: &mut u64,
) -> usize {
    if choice_a == DELETED || choice_b == DELETED {
        return 0;
    }
    *chi_lookups += 1;
    let pa = clusters[cluster_a].entries[choice_a as usize].path_id;
    let pb = clusters[cluster_b].entries[choice_b as usize].path_id;
    chi_count_sorted(index.sorted_nodes(pa), index.sorted_nodes(pb))
}

/// The answer for a complete assignment `choices` of exact cost `g`.
#[allow(clippy::too_many_arguments)]
fn materialize<I: IndexLike + ?Sized>(
    choices: &[u32],
    g: f64,
    qpaths: &[QueryPath],
    ig: &IntersectionGraph,
    clusters: &[Cluster],
    index: &I,
    params: &ScoreParams,
    chi_lookups: &mut u64,
) -> Answer {
    let mut lambda_total = 0.0;
    let mut chosen = Vec::with_capacity(choices.len());
    for (i, &c) in choices.iter().enumerate() {
        if c == DELETED {
            lambda_total += clusters[i].deletion_lambda;
            chosen.push(ChosenPath {
                qpath_index: qpaths[i].index,
                entry: None,
            });
        } else {
            let entry = clusters[i].entries[c as usize].clone();
            lambda_total += entry.lambda();
            chosen.push(ChosenPath {
                qpath_index: qpaths[i].index,
                entry: Some(entry),
            });
        }
    }
    let mut pairs = Vec::with_capacity(ig.edges.len());
    let mut psi_total = 0.0;
    for edge in &ig.edges {
        let chi_p = pair_chi_p(
            choices[edge.qi],
            edge.qi,
            choices[edge.qj],
            edge.qj,
            clusters,
            index,
            chi_lookups,
        );
        let pair = PairConformity::evaluate(edge.qi, edge.qj, edge.chi_q(), chi_p, params.e);
        psi_total += pair.penalty;
        pairs.push(pair);
    }
    debug_assert!(
        (lambda_total + psi_total - g).abs() < 1e-9,
        "incremental cost must agree with the full evaluation"
    );
    Answer {
        choices: chosen,
        breakdown: ScoreBreakdown {
            lambda_total,
            psi_total,
            pairs,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::AlignmentMode;
    use crate::cluster::{build_clusters, ClusterConfig};
    use crate::qpath::decompose_query;
    use path_index::{ExtractionConfig, NoSynonyms};
    use rdf_model::{DataGraph, QueryGraph};

    fn figure1_data() -> DataGraph {
        let mut b = DataGraph::builder();
        for (person, amendment, bill) in [
            ("CB", "A0056", "B1432"),
            ("JR", "A1589", "B0532"),
            ("KF", "A1232", "B0045"),
            ("JM", "A0772", "B0045"),
            ("PD", "A0467", "B0532"),
        ] {
            b.triple_str(person, "sponsor", amendment).unwrap();
            b.triple_str(amendment, "aTo", bill).unwrap();
            b.triple_str(bill, "subject", "\"HC\"").unwrap();
        }
        for (person, bill) in [
            ("JR", "B0045"),
            ("PT", "B0532"),
            ("AN", "B1432"),
            ("PD", "B1432"),
        ] {
            b.triple_str(person, "sponsor", bill).unwrap();
        }
        for person in ["JR", "KF", "JM", "PD"] {
            b.triple_str(person, "gender", "\"Male\"").unwrap();
        }
        b.build()
    }

    fn q1() -> QueryGraph {
        let mut b = QueryGraph::builder();
        b.triple_str("CB", "sponsor", "?v1").unwrap();
        b.triple_str("?v1", "aTo", "?v2").unwrap();
        b.triple_str("?v2", "subject", "\"HC\"").unwrap();
        b.triple_str("?v3", "sponsor", "?v2").unwrap();
        b.triple_str("?v3", "gender", "\"Male\"").unwrap();
        b.build()
    }

    fn run(k: usize) -> (path_index::PathIndex, Vec<QueryPath>, SearchOutcome) {
        let index = path_index::PathIndex::build(figure1_data());
        let q = q1();
        let qpaths = decompose_query(
            &q,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
        let ig = IntersectionGraph::build(&qpaths);
        let params = ScoreParams::paper();
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &params,
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        let outcome = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            k,
            &SearchConfig::default(),
        );
        (index, qpaths, outcome)
    }

    #[test]
    fn first_solution_is_the_papers() {
        // The paper: "the first solution is obtained by combining the
        // paths p1, p10 and p20" — the CB amendment chain, PD's direct
        // sponsorship of the same bill, PD's gender — with perfect
        // alignment and conformity.
        let (index, _qpaths, outcome) = run(1);
        assert_eq!(outcome.answers.len(), 1);
        let best = &outcome.answers[0];
        assert_eq!(best.score(), 0.0);
        assert!(best.is_exact());

        let graph = index.graph().as_graph();
        let rendered: Vec<String> = best
            .path_ids()
            .into_iter()
            .flatten()
            .map(|pid| index.path(pid).path.display(graph).to_string())
            .collect();
        assert!(rendered.contains(&"CB-sponsor-A0056-aTo-B1432-subject-\"HC\"".to_string()));
        assert!(rendered.contains(&"PD-sponsor-B1432-subject-\"HC\"".to_string()));
        assert!(rendered.contains(&"PD-gender-\"Male\"".to_string()));
    }

    #[test]
    fn emission_is_monotone() {
        let (_, _, outcome) = run(25);
        assert!(!outcome.truncated);
        assert!(outcome.truncation.is_none());
        for w in outcome.answers.windows(2) {
            assert!(
                w[0].score() <= w[1].score() + 1e-12,
                "scores must be non-decreasing: {} then {}",
                w[0].score(),
                w[1].score()
            );
        }
    }

    #[test]
    fn top_k_is_prefix_of_top_k_plus_1() {
        let (_, _, small) = run(5);
        let (_, _, large) = run(10);
        for (a, b) in small.answers.iter().zip(large.answers.iter()) {
            assert_eq!(a.score(), b.score());
        }
    }

    #[test]
    fn expansion_limit_truncates() {
        let index = path_index::PathIndex::build(figure1_data());
        let q = q1();
        let qpaths = decompose_query(
            &q,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
        let ig = IntersectionGraph::build(&qpaths);
        let params = ScoreParams::paper();
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &params,
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        let outcome = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            1_000_000,
            &SearchConfig {
                max_expansions: 2,
                ..Default::default()
            },
        );
        assert!(outcome.truncated);
        assert_eq!(outcome.truncation, Some(TruncationReason::ExpansionLimit));

        // A tiny frontier cap instead reports the overflow.
        let outcome = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            1_000_000,
            &SearchConfig {
                max_frontier: 2,
                ..Default::default()
            },
        );
        assert!(outcome.truncated);
        assert_eq!(outcome.truncation, Some(TruncationReason::FrontierOverflow));
    }

    #[test]
    fn distinct_paths_deduplicates_subgraphs() {
        // Q2-like single-path query: with one cluster there are no
        // duplicates; build a two-path query whose clusters overlap so
        // the same path set can be assembled twice.
        let index = path_index::PathIndex::build(figure1_data());
        let mut b = QueryGraph::builder();
        b.triple_str("?a", "sponsor", "?v").unwrap();
        b.triple_str("?b", "sponsor", "?v").unwrap();
        let q = b.build();
        let qpaths = decompose_query(
            &q,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
        let ig = IntersectionGraph::build(&qpaths);
        let params = ScoreParams::paper();
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &params,
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        let plain = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            40,
            &SearchConfig::default(),
        );
        let distinct = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            40,
            &SearchConfig {
                distinct_paths: true,
                ..Default::default()
            },
        );
        let key = |a: &crate::answer::Answer| {
            let mut ids: Vec<_> = a.path_ids();
            ids.sort();
            ids
        };
        // The distinct run has no repeated path sets…
        let mut seen = Vec::new();
        for a in &distinct.answers {
            let k = key(a);
            assert!(!seen.contains(&k), "duplicate path set emitted");
            seen.push(k);
        }
        // …while the plain run does (both clusters draw from the same
        // candidate pool).
        let mut plain_keys: Vec<_> = plain.answers.iter().map(key).collect();
        let total = plain_keys.len();
        plain_keys.sort();
        plain_keys.dedup();
        assert!(
            plain_keys.len() < total,
            "expected duplicates without dedup"
        );
        // Scores still emit monotonically under dedup.
        for w in distinct.answers.windows(2) {
            assert!(w[0].score() <= w[1].score() + 1e-12);
        }
    }

    #[test]
    fn zero_k_returns_nothing() {
        let (_, _, outcome) = run(0);
        assert!(outcome.answers.is_empty());
    }

    #[test]
    fn uncovered_query_path_priced_as_deletion() {
        // With the full-scan fallback disabled, a query path whose
        // labels are all absent gets an empty cluster and is priced as
        // a full deletion, and its IG edge cannot conform.
        let index = path_index::PathIndex::build(figure1_data());
        let mut b = QueryGraph::builder();
        b.triple_str("?v3", "gender", "\"Male\"").unwrap();
        b.triple_str("?v3", "owns", "\"Spaceship\"").unwrap();
        let q = b.build();
        let qpaths = decompose_query(
            &q,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
        let ig = IntersectionGraph::build(&qpaths);
        let params = ScoreParams::paper();
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &params,
            AlignmentMode::Greedy,
            &ClusterConfig {
                allow_full_scan: false,
                ..Default::default()
            },
        );
        let outcome = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            3,
            &SearchConfig::default(),
        );
        assert!(!outcome.answers.is_empty());
        let best = &outcome.answers[0];
        // One path covered (gender, λ=0), one deleted (2·1 + 1·2 = 4),
        // and the ?v3 intersection cannot conform (χq = 1): Ψ = 1.
        assert_eq!(best.lambda(), 4.0);
        assert_eq!(best.psi(), 1.0);
        assert_eq!(best.score(), 5.0);
    }

    #[test]
    fn fallback_scan_beats_deletion() {
        // Same query with the default full-scan fallback: the `owns`
        // path aligns against a gender path (sink mismatch 1 + edge
        // mismatch 2 = 3), and picking the same person keeps Ψ = 0.
        let index = path_index::PathIndex::build(figure1_data());
        let mut b = QueryGraph::builder();
        b.triple_str("?v3", "gender", "\"Male\"").unwrap();
        b.triple_str("?v3", "owns", "\"Spaceship\"").unwrap();
        let q = b.build();
        let qpaths = decompose_query(
            &q,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
        let ig = IntersectionGraph::build(&qpaths);
        let params = ScoreParams::paper();
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &params,
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        let outcome = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            1,
            &SearchConfig::default(),
        );
        let best = &outcome.answers[0];
        assert_eq!(best.lambda(), 3.0);
        assert_eq!(best.psi(), 0.0);
        assert_eq!(best.score(), 3.0);
        assert!(best.choices.iter().all(|c| c.entry.is_some()));
    }

    /// The search before the state arena: a `Vec` of choices per state
    /// and the three-key `(priority, depth, seq)` comparator, χ computed
    /// directly. The kernel must reproduce it push for push.
    mod reference {
        use super::super::*;
        use std::cmp::Ordering;

        struct State {
            choices: Vec<u32>,
            g_before_last: f64,
            g: f64,
            sibling_pushed: bool,
        }

        pub(super) struct QueueItem {
            state: State,
            priority: f64,
            depth: usize,
            seq: u64,
        }

        impl QueueItem {
            /// A detached item for comparator tests.
            pub(super) fn probe(priority: f64, depth: usize, seq: u64) -> Self {
                QueueItem {
                    state: State {
                        choices: Vec::new(),
                        g_before_last: 0.0,
                        g: 0.0,
                        sibling_pushed: false,
                    },
                    priority,
                    depth,
                    seq,
                }
            }
        }

        impl PartialEq for QueueItem {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }
        impl Eq for QueueItem {}
        impl PartialOrd for QueueItem {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for QueueItem {
            fn cmp(&self, other: &Self) -> Ordering {
                other
                    .priority
                    .total_cmp(&self.priority)
                    .then_with(|| self.depth.cmp(&other.depth))
                    .then_with(|| other.seq.cmp(&self.seq))
            }
        }

        struct Search<'a, I: IndexLike> {
            qpaths: &'a [QueryPath],
            ig: &'a IntersectionGraph,
            clusters: &'a [Cluster],
            index: &'a I,
            params: ScoreParams,
            config: SearchConfig,
            bound: Vec<f64>,
            heap: BinaryHeap<QueueItem>,
            seq: u64,
            emitted_sets: Vec<Vec<u32>>,
            expansions: usize,
            truncation: Option<TruncationReason>,
            budget: QueryBudget,
            budget_countdown: u32,
            lookups: u64,
        }

        impl<I: IndexLike> Search<'_, I> {
            fn push_item(&mut self, state: State, priority: f64) {
                self.seq += 1;
                self.heap.push(QueueItem {
                    depth: state.choices.len(),
                    state,
                    priority,
                    seq: self.seq,
                });
            }

            fn push_state(&mut self, prefix: &[u32], g_prefix: f64, slot: usize, choice: u32) {
                let g = g_prefix
                    + choice_cost(
                        prefix,
                        choice,
                        slot,
                        self.ig,
                        self.clusters,
                        self.index,
                        &self.params,
                        &mut self.lookups,
                    );
                let mut choices = prefix.to_vec();
                choices.push(choice);
                let own = g + self.bound[slot + 1];
                let entries = &self.clusters[slot].entries;
                let next = choice as usize + 1;
                let priority = if choice != DELETED && next < entries.len() {
                    own.min(g_prefix + entries[next].lambda() + self.bound[slot + 1])
                } else {
                    own
                };
                let state = State {
                    choices,
                    g_before_last: g_prefix,
                    g,
                    sibling_pushed: false,
                };
                self.push_item(state, priority);
            }

            fn next_answer(&mut self) -> Option<Answer> {
                let n = self.clusters.len();
                if self.truncation.is_some() {
                    return None;
                }
                while let Some(QueueItem {
                    mut state,
                    priority,
                    ..
                }) = self.heap.pop()
                {
                    if !self.budget.is_unlimited() {
                        let due = self.budget_countdown == 0;
                        self.budget_countdown = if due {
                            BUDGET_CHECK_INTERVAL - 1
                        } else {
                            self.budget_countdown - 1
                        };
                        if due {
                            if let Some(reason) = self.budget.exceeded() {
                                self.push_item(state, priority);
                                self.truncation.get_or_insert(reason);
                                return None;
                            }
                        }
                    }
                    if self.expansions >= self.config.max_expansions {
                        self.push_item(state, priority);
                        self.truncation
                            .get_or_insert(TruncationReason::ExpansionLimit);
                        return None;
                    }
                    self.expansions += 1;
                    let t = state.choices.len();
                    let own = state.g + self.bound[t];
                    if !state.sibling_pushed {
                        let last = state.choices[t - 1];
                        if last != DELETED
                            && (last as usize + 1) < self.clusters[t - 1].entries.len()
                        {
                            let prefix = state.choices[..t - 1].to_vec();
                            self.push_state(&prefix, state.g_before_last, t - 1, last + 1);
                        }
                        state.sibling_pushed = true;
                    }
                    if priority + 1e-12 < own {
                        self.push_item(state, own);
                        continue;
                    }
                    if t == n {
                        let mut key: Vec<u32> = state
                            .choices
                            .iter()
                            .enumerate()
                            .map(|(slot, &c)| {
                                if c == DELETED {
                                    u32::MAX
                                } else {
                                    self.clusters[slot].entries[c as usize].path_id.0
                                }
                            })
                            .collect();
                        key.sort_unstable();
                        if !self.config.distinct_paths || !self.emitted_sets.contains(&key) {
                            self.emitted_sets.push(key);
                            return Some(materialize(
                                &state.choices,
                                state.g,
                                self.qpaths,
                                self.ig,
                                self.clusters,
                                self.index,
                                &self.params,
                                &mut self.lookups,
                            ));
                        }
                    } else {
                        let first = first_choice(&self.clusters[t]);
                        self.push_state(&state.choices, state.g, t, first);
                    }
                    if self.heap.len() > self.config.max_frontier {
                        let mut kept = Vec::new();
                        for _ in 0..self.config.max_frontier / 2 {
                            match self.heap.pop() {
                                Some(item) => kept.push(item),
                                None => break,
                            }
                        }
                        self.heap.clear();
                        self.heap.extend(kept);
                        self.truncation
                            .get_or_insert(TruncationReason::FrontierOverflow);
                    }
                }
                None
            }
        }

        #[allow(clippy::too_many_arguments)]
        pub(super) fn search<I: IndexLike>(
            qpaths: &[QueryPath],
            ig: &IntersectionGraph,
            clusters: &[Cluster],
            index: &I,
            params: &ScoreParams,
            k: usize,
            config: &SearchConfig,
            budget: &QueryBudget,
        ) -> SearchOutcome {
            let mut outcome = SearchOutcome {
                answers: Vec::new(),
                expansions: 0,
                truncated: false,
                truncation: None,
                counters: SearchCounters::default(),
            };
            let n = clusters.len();
            if n == 0 || k == 0 {
                return outcome;
            }
            let mut bound = vec![0.0f64; n + 1];
            for i in (0..n).rev() {
                bound[i] = bound[i + 1] + clusters[i].best_lambda();
            }
            let mut s = Search {
                qpaths,
                ig,
                clusters,
                index,
                params: *params,
                config: *config,
                bound,
                heap: BinaryHeap::new(),
                seq: 0,
                emitted_sets: Vec::new(),
                expansions: 0,
                truncation: None,
                budget: budget.clone(),
                budget_countdown: 0,
                lookups: 0,
            };
            s.push_state(&[], 0.0, 0, first_choice(&clusters[0]));
            while outcome.answers.len() < k {
                match s.next_answer() {
                    Some(answer) => outcome.answers.push(answer),
                    None => break,
                }
            }
            outcome.expansions = s.expansions;
            outcome.truncation = s.truncation;
            outcome.truncated = s.truncation.is_some();
            if outcome.truncated && outcome.answers.len() < k {
                // The anytime fill: greedily complete the best frontier
                // states, cheapest first, without duplicates.
                let budget = (k - outcome.answers.len()).saturating_mul(2);
                let mut filled: Vec<(Vec<u32>, f64)> = Vec::new();
                while filled.len() < budget {
                    let Some(item) = s.heap.pop() else { break };
                    let (mut choices, mut g) = (item.state.choices, item.state.g);
                    while choices.len() < n {
                        let slot = choices.len();
                        let mut cost = |c: u32| {
                            choice_cost(
                                &choices,
                                c,
                                slot,
                                ig,
                                clusters,
                                index,
                                params,
                                &mut s.lookups,
                            )
                        };
                        let (best, best_cost) = if clusters[slot].is_empty() {
                            (DELETED, cost(DELETED))
                        } else {
                            (0..clusters[slot].entries.len().min(32) as u32)
                                .map(|c| (c, cost(c)))
                                .min_by(|a, b| a.1.total_cmp(&b.1))
                                .unwrap()
                        };
                        g += best_cost;
                        choices.push(best);
                    }
                    filled.push((choices, g));
                }
                filled.sort_by(|a, b| a.1.total_cmp(&b.1));
                let mut added: Vec<Vec<u32>> = Vec::new();
                for (choices, g) in &filled {
                    if outcome.answers.len() >= k {
                        break;
                    }
                    if added.contains(choices) {
                        continue;
                    }
                    added.push(choices.clone());
                    outcome.answers.push(materialize(
                        choices,
                        *g,
                        qpaths,
                        ig,
                        clusters,
                        index,
                        params,
                        &mut s.lookups,
                    ));
                }
            }
            outcome
        }
    }

    /// A decomposed query with its clusters over `data`.
    struct Fixture {
        index: path_index::PathIndex,
        qpaths: Vec<QueryPath>,
        ig: IntersectionGraph,
        clusters: Vec<Cluster>,
    }

    fn fixture(data: DataGraph, query: &QueryGraph, cluster: ClusterConfig) -> Fixture {
        let index = path_index::PathIndex::build(data);
        let qpaths = decompose_query(
            query,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
        let ig = IntersectionGraph::build(&qpaths);
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &cluster,
        );
        Fixture {
            index,
            qpaths,
            ig,
            clusters,
        }
    }

    /// Six sponsors of four bills on one subject: every cluster entry
    /// has λ = 0, so the order rests on the depth and seq tiebreaks.
    fn tie_heavy() -> Fixture {
        let mut b = DataGraph::builder();
        for person in 0..6 {
            for bill in 0..4 {
                b.triple_str(&format!("p{person}"), "sponsor", &format!("b{bill}"))
                    .unwrap();
            }
        }
        for bill in 0..4 {
            b.triple_str(&format!("b{bill}"), "subject", "\"HC\"")
                .unwrap();
        }
        let mut q = QueryGraph::builder();
        q.triple_str("?a", "sponsor", "?v").unwrap();
        q.triple_str("?b", "sponsor", "?v").unwrap();
        q.triple_str("?c", "sponsor", "?w").unwrap();
        q.triple_str("?v", "subject", "\"HC\"").unwrap();
        q.triple_str("?w", "subject", "\"HC\"").unwrap();
        fixture(b.build(), &q.build(), ClusterConfig::default())
    }

    fn empty_cluster() -> Fixture {
        let mut q = QueryGraph::builder();
        q.triple_str("?v3", "gender", "\"Male\"").unwrap();
        q.triple_str("?v3", "owns", "\"Spaceship\"").unwrap();
        fixture(
            figure1_data(),
            &q.build(),
            ClusterConfig {
                allow_full_scan: false,
                ..Default::default()
            },
        )
    }

    #[test]
    fn kernel_matches_reference_search() {
        let fixtures = [
            (
                "figure1",
                fixture(figure1_data(), &q1(), ClusterConfig::default()),
            ),
            ("tie_heavy", tie_heavy()),
            ("empty_cluster", empty_cluster()),
        ];
        let cancelled = crate::CancelToken::new();
        cancelled.cancel();
        let budgets = [
            ("unlimited", QueryBudget::unlimited()),
            (
                "deadline_0",
                QueryBudget::deadline(std::time::Duration::ZERO),
            ),
            (
                "cancelled",
                QueryBudget::unlimited().cancelled_by(cancelled),
            ),
        ];
        let configs = [
            ("default", SearchConfig::default()),
            (
                "distinct_paths",
                SearchConfig {
                    distinct_paths: true,
                    ..Default::default()
                },
            ),
            (
                "max_expansions_2",
                SearchConfig {
                    max_expansions: 2,
                    ..Default::default()
                },
            ),
            (
                "max_frontier_2",
                SearchConfig {
                    max_frontier: 2,
                    ..Default::default()
                },
            ),
        ];
        let params = ScoreParams::paper();
        for (name, fx) in &fixtures {
            assert!(
                fx.clusters.len() >= 2,
                "{name}: fixture must combine clusters"
            );
            for (budget_name, budget) in &budgets {
                for (config_name, config) in &configs {
                    for k in [1, 10, 1000] {
                        let label = format!("{name}/{budget_name}/{config_name}/k={k}");
                        let (q, ig, cl, ix) = (&fx.qpaths, &fx.ig, &fx.clusters, &fx.index);
                        let new = search_top_k_budgeted(q, ig, cl, ix, &params, k, config, budget);
                        let old = reference::search(q, ig, cl, ix, &params, k, config, budget);
                        assert_eq!(new.expansions, old.expansions, "{label}: expansions");
                        assert_eq!(new.truncated, old.truncated, "{label}: truncated");
                        assert_eq!(new.truncation, old.truncation, "{label}: truncation");
                        assert_eq!(
                            format!("{:?}", new.answers),
                            format!("{:?}", old.answers),
                            "{label}: answers"
                        );
                        for (a, b) in new.answers.iter().zip(&old.answers) {
                            assert_eq!(a.lambda().to_bits(), b.lambda().to_bits(), "{label}");
                            assert_eq!(a.psi().to_bits(), b.psi().to_bits(), "{label}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tie_heavy_fixture_exercises_the_tiebreaks() {
        let fx = tie_heavy();
        let outcome = search_top_k(
            &fx.qpaths,
            &fx.ig,
            &fx.clusters,
            &fx.index,
            &ScoreParams::paper(),
            1000,
            &SearchConfig::default(),
        );
        let exact = outcome.answers.iter().filter(|a| a.score() == 0.0).count();
        assert!(exact > 10, "many equal-score answers: {exact}");
        let c = outcome.counters;
        assert!(c.reinserts > 0 && c.pushes > c.reinserts, "{c:?}");
        assert!(c.chi_lookups > 0 && c.peak_frontier > 1, "{c:?}");
    }

    #[test]
    fn packed_key_orders_like_the_reference_comparator() {
        let priorities = [
            f64::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            1e-300,
            1.0,
            1.0 + f64::EPSILON,
            2.0,
            f64::INFINITY,
        ];
        let mut items = Vec::new();
        for &p in &priorities {
            for depth in [1usize, 2, 7] {
                for seq in [0u64, 1, 2, 1000, u64::from(u32::MAX - 1)] {
                    items.push((p, depth, seq));
                }
            }
        }
        for &(pa, da, sa) in &items {
            let ka = pack_key(pa, da as u32, sa as u32);
            assert_eq!(key_priority(ka).to_bits(), pa.to_bits());
            assert_eq!(key_node(ka), sa as u32);
            for &(pb, db, sb) in &items {
                let kb = pack_key(pb, db as u32, sb as u32);
                let old = reference::QueueItem::probe(pa, da, sa)
                    .cmp(&reference::QueueItem::probe(pb, db, sb));
                assert_eq!(
                    ka.cmp(&kb),
                    old,
                    "({pa:?}, {da}, {sa}) vs ({pb:?}, {db}, {sb})"
                );
            }
        }
        // −0.0 sorts before +0.0, as under `total_cmp`.
        assert!(pack_key(-0.0, 1, 5) > pack_key(0.0, 1, 5));
    }
}
