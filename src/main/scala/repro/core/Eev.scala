package repro.core

import scala.collection.mutable

/** Counters from the most recent [[Eev.apply]] run (single-threaded; for diagnostics
  * and the benchmark's visibility into where verification effort goes).
  * `treeWitnessHits` is always 0: every seed that pre-verification and the
  * feasibility check leave open is decided by a search. The field is kept because
  * the benchmark reads it.
  */
final case class EevStats(gtEdges: Int, preVerified: Int, treeWitnessHits: Int,
                          dfsSearches: Int, escalations: Int, negatives: Int)

/** Escaped Edges Verification (paper Algorithms 6 & 7).
  *
  * Generates the exact tspG from the tight upper-bound graph `Gt` without enumerating
  * all temporal simple paths:
  *
  *   1. Pre-verification — every `Gt` edge out of `s` or into `t` is in tspG (Lemma 2),
  *      and every edge `e(u, v, τ)` with an `s→u` edge before `τ` or a `v→t` edge after
  *      `τ` in `Gt` is in tspG (Lemma 10).
  *   2. For each remaining unverified edge (in non-descending temporal order), a
  *      bidirectional DFS finds one temporal simple path `s ⇝ t` through it; every edge
  *      on that path, plus every shortcut edge between two of its vertices that keeps
  *      timestamps strictly ascending (Lemma 11, generalized in [[confirmBatch]]), is
  *      confirmed in one batch.
  *   3. Edges whose search fails lie on no temporal simple path and are dropped.
  *
  * The bidirectional DFS implements both of the paper's optimizations — search-
  * direction prioritization (the half with the smaller timestamp window runs first)
  * and neighbors explored in temporal order (out-neighbors non-ascending, in-neighbors
  * non-descending) — plus three engineering safeguards that preserve exactness while
  * taming the exponential worst case (Theorem 5) on dense windows:
  *
  *   - *Reachability gates*: a forward step into `x` at time `τ` is only taken when
  *     `τ < D(x)` (departures on `Gt`), a backward step from `x` only when `τ > A(x)`
  *     — necessary conditions for any witness path, so pruning never loses
  *     completeness.
  *   - *Cross-conflict abort and conflict cache*: when the second-direction search
  *     exhausts without ever having been blocked by a vertex owned by the first
  *     direction, its failure is independent of the first direction's choices, so the
  *     whole search can stop instead of backtracking through exponentially many
  *     first-side variants; otherwise its blocking set is cached (see [[Search]]).
  *   - *Budgeted escalation*: a search that exceeds a node-expansion budget gets
  *     per-seed polarity times that additionally avoid the seed's endpoints
  *     (`A` avoiding `{t, v}`, `D` avoiding `{s, u}`) — these exactly refute the
  *     common pathological case where e.g. every continuation `v ⇝ t` passes through
  *     `u` — and, if they do not refute the seed, the same search anchored at `s` and
  *     `t` instead of the seed ([[anchoredSearch]]) decides it.
  *
  * Both the seed-anchored and the `s`/`t`-anchored search are one [[Search]] class,
  * parameterized by where each half starts, where it ends and which gates it uses.
  *
  * Searching inside `Gt` is complete because every temporal simple path `s ⇝ t` lies
  * entirely within `tspG ⊆ Gt`.
  */
object Eev {

  /** Seed-anchored node-expansion budget before escalating to per-seed gates. */
  private val SearchBudget = 10000L

  /** Stats of the most recent run (not thread-safe; diagnostics only). */
  @volatile var lastStats: EevStats = EevStats(0, 0, 0, 0, 0, 0)

  def apply(gt: TemporalGraph, q: TspgQuery): Subgraph = run(gt, q, SearchBudget)

  /** [[apply]] with the seed-anchored search budget as a parameter, so tests can force
    * escalation on small graphs.
    */
  private[core] def run(gt: TemporalGraph, q: TspgQuery, budget: Long): Subgraph = {
    val verified = mutable.HashSet.empty[TEdge]
    val vOut     = mutable.Set.empty[Int]
    val eOut     = mutable.Set.empty[TEdge]

    def confirm(e: TEdge): Unit =
      if (verified.add(e)) { vOut += e.src; vOut += e.dst; eOut += e }

    // --- Pre-verification (Algorithm 6 lines 2–5) ------------------------------------
    // sMin(x): earliest s→x edge in Gt; tMax(x): latest x→t edge in Gt (for Lemma 10).
    val sMin = mutable.HashMap.empty[Int, Int]
    val tMax = mutable.HashMap.empty[Int, Int]
    gt.edges.foreach { e =>
      if (e.src == q.s) sMin.updateWith(e.dst)(o => Some(o.fold(e.ts)(math.min(_, e.ts))))
      if (e.dst == q.t) tMax.updateWith(e.src)(o => Some(o.fold(e.ts)(math.max(_, e.ts))))
    }
    gt.edges.foreach { e =>
      if (e.src == q.s || e.dst == q.t) confirm(e) // Lemma 2
      else if (sMin.get(e.src).exists(_ < e.ts) || tMax.get(e.dst).exists(_ > e.ts))
        confirm(e) // Lemma 10
    }

    // --- Verification loop (lines 6–19); gt.edges is already ts-ascending ------------
    val arrGt = PolarityTime.arrivals(gt, q)
    val depGt = PolarityTime.departures(gt, q)

    val preVerified = verified.size
    var searches    = 0
    var escalations = 0
    var negatives   = 0
    gt.edges.foreach { e =>
      if (!verified.contains(e)) {
        // Seed feasibility on Gt itself: a witness prefix/suffix lies in tspG ⊆ Gt,
        // so A(u) < τ < D(v) *recomputed on Gt* is necessary — edges failing it are
        // negative without any search.
        val feasible =
          (e.src == q.s || arrGt(e.src) < e.ts) && (e.dst == q.t || depGt(e.dst) > e.ts)
        if (!feasible) negatives += 1
        else {
          searches += 1
          val (res, escalated) = searchWithEscalation(gt, q, e, arrGt, depGt, budget)
          if (escalated) escalations += 1
          res match {
            case Some(path) => confirmBatch(gt, q, path, confirm)
            case None       => negatives += 1 // on no temporal simple path: excluded
          }
        }
      }
    }
    lastStats = EevStats(gt.m, preVerified, 0, searches, escalations, negatives)
    Subgraph(vOut.toSet, eOut.toSet)
  }

  /** Batch confirmation along a found witness path — the paper's Lemma 11,
    * generalized from parallel edges to *shortcut* edges: for path vertices
    * `u_0, …, u_l` (edge `k` enters `u_k` at `ts_k`; `ts_0 = τb − 1`,
    * `ts_{l+1} = τe + 1`), any `Gt` edge `e(u_i, u_j, τ)` with `i < j` and
    * `ts_i < τ < ts_{j+1}` closes another temporal simple path (prefix to `u_i`,
    * the edge, suffix from `u_j` — a vertex subset of the witness, timestamps still
    * strictly ascending), so it is confirmed without a search. Lemma 11's parallel
    * edges are the `j = i + 1` case; edges touching `s`/`t` reproduce Lemmas 2/10.
    */
  private def confirmBatch(gt: TemporalGraph, q: TspgQuery, path: IndexedSeq[TEdge],
                           confirm: TEdge => Unit): Unit = {
    val l = path.length
    // Vertex u_k and its entering timestamp ts_k.
    val pos = mutable.HashMap.empty[Int, Int]
    val enterTs = new Array[Int](l + 2)
    pos(path(0).src) = 0
    enterTs(0) = q.tauB - 1
    var k = 1
    while (k <= l) { pos(path(k - 1).dst) = k; enterTs(k) = path(k - 1).ts; k += 1 }
    enterTs(l + 1) = q.tauE + 1
    var i = 0
    while (i < l) {
      val ui  = if (i == 0) path(0).src else path(i - 1).dst
      val out = gt.outEdges(ui) // ascending ts
      var x   = out.length - 1
      while (x >= 0 && out(x).ts > enterTs(i)) {
        val cand = out(x)
        pos.get(cand.dst) match {
          case Some(j) if j > i && cand.ts < enterTs(j + 1) => confirm(cand)
          case _                                            => ()
        }
        x -= 1
      }
      i += 1
    }
  }

  /** Optimized bidirectional DFS (paper Algorithm 7) with budgeted escalation.
    * Returns one temporal simple path `s ⇝ t` through `seed`, as its full edge
    * sequence, or None.
    */
  def biDirSearch(gt: TemporalGraph, q: TspgQuery, seed: TEdge): Option[IndexedSeq[TEdge]] =
    searchWithEscalation(gt, q, seed,
      PolarityTime.arrivals(gt, q), PolarityTime.departures(gt, q), SearchBudget)._1

  /** Returns `(result, escalatedToStage2)`. */
  private def searchWithEscalation(gt: TemporalGraph, q: TspgQuery, seed: TEdge,
                                   arrGt: Array[Int], depGt: Array[Int],
                                   budget: Long): (Option[IndexedSeq[TEdge]], Boolean) = {
    // Stage 1: seed-anchored search, the forward half from `v` to `t` gated by
    // `τ < D(x)`, the backward half from `u` to `s` gated by `τ > A(x)`.
    val first = new Search(gt, q, seed,
      fwd = Half(seed.dst, seed.ts, q.t, q.tauE + 1, depGt),
      bwd = Half(seed.src, seed.ts, q.s, q.tauB - 1, arrGt), budget = budget)
    val r = first.run()
    if (r.isDefined || !first.budgetExhausted) (r, false) // found, or not in tspG
    else {
      // Stage 2: polarity times that also avoid the seed endpoints. The witness
      // path's prefix cannot contain v (= seed.dst) and its suffix cannot contain u,
      // so `A(u) < τ < D(v)` under them is still necessary — and it refutes outright
      // the seeds whose half-side is only reachable through the opposite seed
      // endpoint. Stage 3 decides the rest.
      val arrAvoid = PolarityTime.earliestArrivals(gt, q.s, q.tauB, q.tauE, q.t, seed.dst)
      val depAvoid = PolarityTime.latestDepartures(gt, q.t, q.tauB, q.tauE, q.s, seed.src)
      val backOk = seed.src == q.s || arrAvoid(seed.src) < seed.ts
      val fwdOk  = seed.dst == q.t || depAvoid(seed.dst) > seed.ts
      (if (backOk && fwdOk) anchoredSearch(gt, q, seed) else None, true)
    }
  }

  /** Stage 3: goal-directed search anchored at `s` and `t`.
    *
    * The prefix half `s ⇝ u` is searched forward *from s*, gated by `τ < D_u(x)`
    * where `D_u` is the latest departure towards `u` within `[τb, τ−1]` avoiding
    * `{t, v}`; the suffix half `v ⇝ t` is searched backward *from t*, gated by
    * `τ > A_v(x)` where `A_v` is the earliest arrival from `v` within `[τ+1, τe]`
    * avoiding `{s, u}`. Every explored branch can still complete its half — the
    * search only backtracks on vertex conflicts — and the branching factor is that of
    * the neighborhoods around `s` and `t` rather than around the (hub-heavy) seed
    * endpoints. Unbudgeted, so exact on its own.
    */
  private[core] def anchoredSearch(gt: TemporalGraph, q: TspgQuery,
                                   seed: TEdge): Option[IndexedSeq[TEdge]] = {
    val depToU   = PolarityTime.latestDepartures(gt, seed.src, q.tauB, seed.ts - 1, q.t, seed.dst)
    val arrFromV = PolarityTime.earliestArrivals(gt, seed.dst, seed.ts + 1, q.tauE, q.s, seed.src)
    new Search(gt, q, seed,
      fwd = Half(q.s, q.tauB - 1, seed.src, seed.ts, depToU),
      bwd = Half(q.t, q.tauE + 1, seed.dst, seed.ts, arrFromV), budget = Long.MaxValue).run()
  }

  /** One half of a witness search: a DFS from `start` (entered at `startTs`) that
    * ends with an edge into `goal`. Forward halves walk out-edges with ascending
    * timestamps, need the goal edge's `τ < goalBound` and step into `x` at `τ` only
    * if `τ < gate(x)`; backward halves walk in-edges with descending timestamps, need
    * `τ > goalBound` and `τ > gate(x)`.
    */
  private final case class Half(start: Int, startTs: Int, goal: Int, goalBound: Int,
                                gate: Array[Int])

  /** One bidirectional search for a witness through `seed` (mutable state scoped to
    * a single run). Both halves must avoid `{s, t, u, v}` and each other's vertices.
    */
  private final class Search(gt: TemporalGraph, q: TspgQuery, seed: TEdge,
                             fwd: Half, bwd: Half, budget: Long) {

    private val fwdOwn = mutable.BitSet.empty // interior vertices of the forward half
    private val bwdOwn = mutable.BitSet.empty
    private val path   = mutable.ArrayBuffer(seed) // the seed plus both halves' edges
    private var steps  = 0L
    private var abort  = false // cross-conflict abort or budget exhaustion
    /** First-side vertices the current terminal run was blocked on. */
    private var crossSet = mutable.BitSet.empty
    /** Conflict cache: past terminal failures, each represented by the first-side
      * vertex set it was blocked on. The terminal outcome is fully determined by
      * which first-side vertices its exploration hits, and blocking *more* vertices
      * only shrinks its search tree — so if a cached conflict set is still wholly
      * owned by the first side, re-running the terminal search is guaranteed to fail
      * and is skipped (conflict-directed pruning; preserves exactness). Goal
      * vertices are never owned, so `s` and `t` never enter a conflict set.
      */
    private val conflictCache = mutable.ArrayBuffer.empty[mutable.BitSet]
    var budgetExhausted = false

    private def taken(w: Int): Boolean =
      w == q.s || w == q.t || w == seed.src || w == seed.dst ||
        fwdOwn.contains(w) || bwdOwn.contains(w)

    private def step(): Unit = {
      steps += 1
      if (steps > budget) { budgetExhausted = true; abort = true }
    }

    /** Append the goal edge `e` and try to finish; undo on failure. */
    private def close(e: TEdge, cont: () => Boolean): Boolean = {
      path += e
      cont() || { path.remove(path.length - 1); false }
    }

    /** Forward DFS from `cur` (last edge time `curTs`) towards `fwd.goal`.
      * `terminal`: this is the second direction — record the first side's vertices
      * it is blocked on.
      */
    private def forward(cur: Int, curTs: Int, terminal: Boolean,
                        cont: () => Boolean): Boolean = {
      val out = gt.outEdges(cur) // ascending; iterate descending (non-ascending order)
      var i   = out.length - 1
      while (i >= 0 && !abort) {
        val e = out(i)
        if (e.ts <= curTs) i = -1 // descending scan: all remaining are ≤ too
        else {
          step()
          if (e.dst == fwd.goal) { // before the taken check: the goal may be u or t
            if (e.ts < fwd.goalBound && close(e, cont)) return true
          } else if (e.ts < fwd.gate(e.dst)) {
            if (taken(e.dst)) {
              if (terminal && bwdOwn.contains(e.dst)) crossSet += e.dst
            } else {
              fwdOwn += e.dst
              path += e
              if (forward(e.dst, e.ts, terminal, cont)) return true
              fwdOwn -= e.dst
              path.remove(path.length - 1)
            }
          }
          i -= 1
        }
      }
      false
    }

    /** Backward DFS from `cur` (next edge time `curTs`) towards `bwd.goal`. */
    private def backward(cur: Int, curTs: Int, terminal: Boolean,
                         cont: () => Boolean): Boolean = {
      val in = gt.inEdges(cur) // ascending (non-descending order)
      var i  = 0
      while (i < in.length && !abort) {
        val e = in(i)
        if (e.ts >= curTs) i = in.length
        else {
          step()
          if (e.src == bwd.goal) {
            if (e.ts > bwd.goalBound && close(e, cont)) return true
          } else if (e.ts > bwd.gate(e.src)) {
            if (taken(e.src)) {
              if (terminal && fwdOwn.contains(e.src)) crossSet += e.src
            } else {
              bwdOwn += e.src
              path += e
              if (backward(e.src, e.ts, terminal, cont)) return true
              bwdOwn -= e.src
              path.remove(path.length - 1)
            }
          }
          i += 1
        }
      }
      false
    }

    /** Wrap a terminal-direction invocation.
      *
      * - Conflict-cache skip: if a past failure's conflict set is still wholly owned
      *   by the first side, this run is guaranteed to fail — skip it.
      * - Cross-conflict abort: if the run exhausts without ever having been blocked
      *   by a first-direction vertex, its failure is independent of the first
      *   direction's choices — retrying other first-side variants is pointless, so
      *   the whole search aborts.
      */
    private def terminalRun(firstSideOwn: mutable.BitSet, body: => Boolean): Boolean = {
      if (conflictCache.exists(_.subsetOf(firstSideOwn))) return false
      crossSet = mutable.BitSet.empty
      val ok = body
      if (!ok && !abort) {
        if (crossSet.isEmpty) abort = true
        else if (conflictCache.size < 32) conflictCache += crossSet
      }
      ok
    }

    /** Run the search; the witness comes back in path order (ascending `ts`). */
    def run(): Option[IndexedSeq[TEdge]] = {
      // A half whose start is its goal (the seed touches `s` or `t`) is empty.
      def fwdRun(terminal: Boolean, cont: () => Boolean): Boolean =
        if (fwd.start == fwd.goal) cont() else forward(fwd.start, fwd.startTs, terminal, cont)
      def bwdRun(terminal: Boolean, cont: () => Boolean): Boolean =
        if (bwd.start == bwd.goal) cont() else backward(bwd.start, bwd.startTs, terminal, cont)
      // Search-direction prioritization (paper §V, optimization i): the half with
      // the smaller timestamp window, the potentially shorter side, runs first, and
      // the other half is the terminal continuation. Putting the larger window first
      // instead measured slower on dense windows (DESIGN §2.5).
      val forwardFirst = fwd.goalBound - fwd.startTs < bwd.startTs - bwd.goalBound
      val found =
        if (forwardFirst)
          fwdRun(terminal = false, () => terminalRun(fwdOwn, bwdRun(terminal = true, () => true)))
        else
          bwdRun(terminal = false, () => terminalRun(bwdOwn, fwdRun(terminal = true, () => true)))
      if (found) Some(path.sortBy(_.ts).toIndexedSeq) else None
    }
  }
}
