package repro.core

/** Polarity time computation (paper Algorithm 3, Definitions 3–4).
  *
  * For every vertex `u`, the earliest arrival time `A(u)` of any strict-ascending
  * temporal path from `s` within `[τb, τe]` that does not pass through `t`, and the
  * latest departure time `D(u)` of any such path from `u` to `t` that does not pass
  * through `s`. Conventions follow the paper: `A(s) = τb − 1`, `D(t) = τe + 1`,
  * `A(u) = +∞` / `D(u) = −∞` when no such path exists (here `NoArrival` /
  * `NoDeparture`).
  *
  * Implementation is the one-pass earliest-arrival scan of Wu et al. (*Path Problems
  * in Temporal Graphs*, PVLDB 2014) over the `[τb, τe]` slice of the ts-sorted
  * `g.edges`, located by binary search. Timestamps strictly ascend along a temporal
  * path, so by the time the scan reaches an edge at `τ` every path arriving before
  * `τ` has been relaxed, and edges sharing `τ` cannot chain (`A(src) < τ` fails for
  * a `src` reached at `τ`). Each label is therefore final when set: no queue and no
  * label correction, `O(n + |window| + log m)` time. Departures are the mirror scan
  * in descending order.
  */
object PolarityTime {

  /** Sentinel for `A(u) = +∞` (no temporal path from `s` to `u`). */
  val NoArrival: Int = Int.MaxValue

  /** Sentinel for `D(u) = −∞` (no temporal path from `u` to `t`). */
  val NoDeparture: Int = Int.MinValue

  /** Earliest arrival times `A(·)` for a query (avoiding `t`, per Algorithm 3 line 6). */
  def arrivals(g: TemporalGraph, q: TspgQuery): Array[Int] =
    earliestArrivals(g, q.s, q.tauB, q.tauE, avoid = q.t, avoid2 = -1)

  /** Latest departure times `D(·)` for a query (avoiding `s`). */
  def departures(g: TemporalGraph, q: TspgQuery): Array[Int] =
    latestDepartures(g, q.t, q.tauB, q.tauE, avoid = q.s, avoid2 = -1)

  /** Earliest strict-ascending arrival from `source` within `[tauB, tauE]`, never
    * entering `avoid` or `avoid2` (`-1` disables either).
    *
    * The paper uses `avoid = t`, so `A` only reflects paths not passing through the
    * target (Lemma 2's simple-path argument); EEV's per-seed gates add the seed's
    * head as `avoid2`; workload generation avoids nothing.
    */
  def earliestArrivals(g: TemporalGraph, source: Int, tauB: Int, tauE: Int,
                       avoid: Int, avoid2: Int): Array[Int] = {
    val a = Array.fill(g.n)(NoArrival)
    a(source) = tauB - 1
    val es = g.edges
    var i  = firstAfter(es, tauB - 1)
    val hi = firstAfter(es, tauE)
    while (i < hi) {
      val e = es(i)
      if (e.dst != avoid && e.dst != avoid2 && a(e.src) < e.ts && e.ts < a(e.dst))
        a(e.dst) = e.ts
      i += 1
    }
    a
  }

  /** Latest strict-ascending departure towards `target` within `[tauB, tauE]` — the
    * mirror of [[earliestArrivals]] (Algorithm 3 line 10): a descending scan, never
    * leaving from `avoid` or `avoid2`.
    */
  def latestDepartures(g: TemporalGraph, target: Int, tauB: Int, tauE: Int,
                       avoid: Int, avoid2: Int): Array[Int] = {
    val d = Array.fill(g.n)(NoDeparture)
    d(target) = tauE + 1
    val es = g.edges
    val lo = firstAfter(es, tauB - 1)
    var i  = firstAfter(es, tauE) - 1
    while (i >= lo) {
      val e = es(i)
      if (e.src != avoid && e.src != avoid2 && d(e.src) < e.ts && e.ts < d(e.dst))
        d(e.src) = e.ts
      i -= 1
    }
    d
  }

  /** Index of the first edge of the ts-sorted `es` with `ts > bound` (`es.length` if
    * none), so `[firstAfter(τb − 1), firstAfter(τe))` is the window slice.
    */
  private def firstAfter(es: Array[TEdge], bound: Int): Int = {
    var lo = 0
    var hi = es.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (es(mid).ts <= bound) lo = mid + 1 else hi = mid
    }
    lo
  }
}
