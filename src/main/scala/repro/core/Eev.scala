package repro.core

import scala.collection.mutable

/** Counters from the most recent [[Eev.apply]] run (single-threaded; for diagnostics
  * and the benchmark's visibility into where verification effort goes).
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
  *      on that path, plus every parallel edge that can replace an interior edge while
  *      keeping timestamps strictly ascending (Lemma 11), is confirmed in one batch.
  *   3. Edges whose search fails lie on no temporal simple path and are dropped.
  *
  * The bidirectional DFS implements both of the paper's optimizations — search-
  * direction prioritization (inverted here: the half with the larger window goes
  * first, see `Search.run`) and neighbors explored in temporal order (out-neighbors
  * non-ascending, in-neighbors non-descending) — plus three engineering safeguards
  * that preserve exactness while taming the exponential worst case (Theorem 5) on
  * dense windows:
  *
  *   - *Reachability gates*: a forward step into `x` at time `τ` is only taken when
  *     `τ < D(x)` (departures on `Gt`), a backward step from `x` only when `τ > A(x)`
  *     — necessary conditions for any witness path, so pruning never loses
  *     completeness.
  *   - *Cross-conflict abort*: when the second-direction search exhausts without ever
  *     having been blocked by a vertex owned by the first direction, its failure is
  *     independent of the first direction's choices, so the whole search can stop
  *     instead of backtracking through exponentially many first-side variants.
  *   - *Budgeted escalation*: a search that exceeds a node-expansion budget is re-run
  *     with per-seed polarity times that additionally avoid the seed's endpoints
  *     (`A` avoiding `{t, v}`, `D` avoiding `{s, u}`) — these exactly refute the
  *     common pathological case where e.g. every continuation `v ⇝ t` passes through
  *     `u`, and tighten the gates for the rest — and, failing that, by the same search
  *     anchored at `s` and `t` instead of the seed ([[anchoredSearch]]).
  *
  * Both the seed-anchored and the `s`/`t`-anchored search are one [[Search]] class,
  * parameterized by where each half starts, where it ends and which gates it uses.
  *
  * Searching inside `Gt` is complete because every temporal simple path `s ⇝ t` lies
  * entirely within `tspG ⊆ Gt`.
  */
object Eev {

  /** Stage-1 node-expansion budget before escalating to per-seed gates.
    * Package-visible so tests can force the escalation path on small graphs.
    */
  private[core] var searchBudget: Long = 10000L

  /** Stats of the most recent run (not thread-safe; diagnostics only). */
  @volatile var lastStats: EevStats = EevStats(0, 0, 0, 0, 0, 0)

  def apply(gt: TemporalGraph, q: TspgQuery): Subgraph = {
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
    val (arrGt, arrPar) = PolarityTime.earliestArrivals(gt, q.s, q.tauB, q.tauE, q.t, -1)
    val (depGt, depPar) = PolarityTime.latestDepartures(gt, q.t, q.tauB, q.tauE, q.s, -1)

    val preVerified = verified.size
    var treeHits    = 0
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
        else treeWitness(gt, q, e, arrPar, depPar)
          .orElse { randomWitness(gt, q, e, arrGt, depGt) }
          match {
          case Some(path) =>
            treeHits += 1
            confirmBatch(gt, q, path, confirm)
          case None =>
            searches += 1
            val (res, escalated) = searchWithEscalation(gt, q, e, arrGt, depGt)
            if (escalated) escalations += 1
            res match {
              case Some(path) => confirmBatch(gt, q, path, confirm)
              case None       => negatives += 1 // on no temporal simple path: excluded
            }
        }
      }
    }
    lastStats = EevStats(gt.m, preVerified, treeHits, searches, escalations, negatives)
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

  /** Tree-witness shortcut: stitch the earliest-arrival parent path `s ⇝ u` to the
    * latest-departure parent path `v ⇝ t`. Both are temporal simple paths by
    * construction (labels strictly ascend along them) with `A(u) < τ < D(v)`, so if
    * they are vertex-disjoint (and avoid the opposite seed endpoint) the concatenation
    * is a witness — no search needed. Conflicting tree paths return None.
    */
  private def treeWitness(gt: TemporalGraph, q: TspgQuery, e: TEdge,
                          arrPar: Array[TEdge], depPar: Array[TEdge]): Option[IndexedSeq[TEdge]] = {
    val used = mutable.Set(e.src, e.dst)
    val back = mutable.ArrayBuffer.empty[TEdge]
    var x = e.src
    while (x != q.s) {
      val pe = arrPar(x)
      if (pe == null) return None
      if (pe.src != q.s && !used.add(pe.src)) return None
      back += pe
      x = pe.src
    }
    val fwd = mutable.ArrayBuffer.empty[TEdge]
    var y = e.dst
    while (y != q.t) {
      val pe = depPar(y)
      if (pe == null) return None
      if (pe.dst != q.t && !used.add(pe.dst)) return None
      fwd += pe
      y = pe.dst
    }
    Some((back.reverseIterator ++ Iterator.single(e) ++ fwd.iterator).toIndexedSeq)
  }

  /** Randomized greedy witness construction — a cheap middle stage between the tree
    * witness and the full bidirectional DFS. Performs a bounded number of gated random
    * walks: backward from `seed.src` towards `s` (each step a uniformly probed
    * in-edge with `ts` strictly below the current time, above `A(src)`, and into an
    * unused vertex), then forward from `seed.dst` towards `t` symmetrically, sharing
    * the used-vertex set. In dense positive windows a random walk completes with high
    * probability while deterministic orders keep colliding on the same hubs; on
    * failure the exact DFS still runs, so this never affects the result — only the
    * constant factors. Deterministic per seed edge.
    */
  private def randomWitness(gt: TemporalGraph, q: TspgQuery, seed: TEdge,
                            arr: Array[Int], dep: Array[Int]): Option[IndexedSeq[TEdge]] = {
    val rng = new java.util.Random(seed.src * 1000003L ^ seed.dst * 7919L ^ seed.ts.toLong)
    val MaxTries = 16
    val ProbesPerStep = 12
    var attempt = 0
    while (attempt < MaxTries) {
      attempt += 1
      val used = mutable.Set(seed.src, seed.dst)
      val back = mutable.ArrayBuffer.empty[TEdge]
      var cur   = seed.src
      var curTs = seed.ts
      var dead  = false
      while (!dead && cur != q.s && back.length < q.theta) {
        val in = gt.inEdges(cur) // ts-ascending
        // Feasible candidates sit in the prefix with ts < curTs; probe random slots.
        var hi = in.length
        while (hi > 0 && in(hi - 1).ts >= curTs) hi -= 1
        // Among the probed feasible candidates, prefer the lowest-degree vertex:
        // hubs are the contested resource between the two half-paths, so spending
        // them here is what makes the opposite walk fail.
        var pick: TEdge = null
        var pickDeg = Int.MaxValue
        if (hi > 0) {
          var p = 0
          val start = rng.nextInt(hi)
          while (p < math.min(ProbesPerStep, hi)) {
            val e2 = in((start + p) % hi)
            if (e2.src == q.s) { pick = e2; pickDeg = -1; p = ProbesPerStep }
            else if (e2.src != q.t && e2.ts > arr(e2.src) && !used.contains(e2.src)) {
              val deg = gt.inEdges(e2.src).length + gt.outEdges(e2.src).length
              if (deg < pickDeg) { pick = e2; pickDeg = deg }
            }
            p += 1
          }
        }
        if (pick == null) dead = true
        else {
          back += pick
          used += pick.src
          cur = pick.src
          curTs = pick.ts
        }
      }
      if (!dead && cur == q.s) {
        val fwd = mutable.ArrayBuffer.empty[TEdge]
        cur = seed.dst
        curTs = seed.ts
        while (!dead && cur != q.t && fwd.length < q.theta) {
          val out = gt.outEdges(cur)
          var lo = 0
          while (lo < out.length && out(lo).ts <= curTs) lo += 1
          val width = out.length - lo
          var pick: TEdge = null
          var pickDeg = Int.MaxValue
          if (width > 0) {
            var p = 0
            val start = rng.nextInt(width)
            while (p < math.min(ProbesPerStep, width)) {
              val e2 = out(lo + (start + p) % width)
              if (e2.dst == q.t) { pick = e2; pickDeg = -1; p = ProbesPerStep }
              else if (e2.dst != q.s && e2.ts < dep(e2.dst) && !used.contains(e2.dst)) {
                val deg = gt.inEdges(e2.dst).length + gt.outEdges(e2.dst).length
                if (deg < pickDeg) { pick = e2; pickDeg = deg }
              }
              p += 1
            }
          }
          if (pick == null) dead = true
          else {
            fwd += pick
            used += pick.dst
            cur = pick.dst
            curTs = pick.ts
          }
        }
        if (!dead && cur == q.t)
          return Some((back.reverseIterator ++ Iterator.single(seed) ++ fwd.iterator).toIndexedSeq)
      }
    }
    None
  }

  /** Optimized bidirectional DFS (paper Algorithm 7) with budgeted escalation.
    * Returns one temporal simple path `s ⇝ t` through `seed`, as its full edge
    * sequence, or None.
    */
  def biDirSearch(gt: TemporalGraph, q: TspgQuery, seed: TEdge): Option[IndexedSeq[TEdge]] =
    searchWithEscalation(gt, q, seed,
      PolarityTime.arrivals(gt, q), PolarityTime.departures(gt, q))._1

  /** Returns `(result, escalatedToStage2)`. */
  private def searchWithEscalation(gt: TemporalGraph, q: TspgQuery, seed: TEdge,
                                   arrGt: Array[Int], depGt: Array[Int]): (Option[IndexedSeq[TEdge]], Boolean) = {
    // Stage 1: seed-anchored search, the forward half from `v` to `t` gated by
    // `τ < D(x)`, the backward half from `u` to `s` gated by `τ > A(x)`.
    val first = new Search(gt, q, seed,
      fwd = Half(seed.dst, seed.ts, q.t, q.tauE + 1, depGt),
      bwd = Half(seed.src, seed.ts, q.s, q.tauB - 1, arrGt), budget = searchBudget)
    val r = first.run()
    if (r.isDefined || !first.budgetExhausted) (r, false) // found, or not in tspG
    else {
      // Escalate: polarity times that also avoid the seed endpoints. The witness
      // path's prefix cannot contain v (= seed.dst) and its suffix cannot contain u,
      // so these remain sound gates — and they refute outright the searches whose
      // half-side is only reachable through the opposite seed endpoint.
      val (arrAvoid, arrAvoidPar) =
        PolarityTime.earliestArrivals(gt, q.s, q.tauB, q.tauE, q.t, seed.dst)
      val (depAvoid, depAvoidPar) =
        PolarityTime.latestDepartures(gt, q.t, q.tauB, q.tauE, q.s, seed.src)
      val backOk = seed.src == q.s || arrAvoid(seed.src) < seed.ts
      val fwdOk  = seed.dst == q.t || depAvoid(seed.dst) > seed.ts
      if (!backOk || !fwdOk) (None, true)
      else {
        // Cheap retries under the tighter per-seed gates before the unbounded search:
        // the avoidance trees often stitch where the global ones collided.
        val res = treeWitness(gt, q, seed, arrAvoidPar, depAvoidPar)
          .orElse(randomWitness(gt, q, seed, arrAvoid, depAvoid))
          .orElse(anchoredSearch(gt, q, seed))
        (res, true)
      }
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
    val depToU   = PolarityTime.latestDepartures(gt, seed.src, q.tauB, seed.ts - 1, q.t, seed.dst)._1
    val arrFromV = PolarityTime.earliestArrivals(gt, seed.dst, seed.ts + 1, q.tauE, q.s, seed.src)._1
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
      // Search-direction prioritization. The paper (§V, optimization i) runs the
      // potentially shorter side first; with the cross-conflict abort and conflict
      // cache in place the measured optimum inverts: the half with the *larger*
      // window goes first (dense windows offer it many completions) and the other
      // is the terminal continuation — its search tree is small, so failed attempts
      // are cheap and their conflict sets cache well. Total work is
      // (#first-side completions tried) × (terminal tree size), which this
      // minimizes.
      val forwardFirst = fwd.goalBound - fwd.startTs >= bwd.startTs - bwd.goalBound
      val found =
        if (forwardFirst)
          fwdRun(terminal = false, () => terminalRun(fwdOwn, bwdRun(terminal = true, () => true)))
        else
          bwdRun(terminal = false, () => terminalRun(bwdOwn, fwdRun(terminal = true, () => true)))
      if (found) Some(path.sortBy(_.ts).toIndexedSeq) else None
    }
  }
}
