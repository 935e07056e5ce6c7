package repro.data

import scala.util.Random
import repro.core.{PolarityTime, TemporalGraph, TspgQuery}

/** Query workload generation, following the paper's protocol (§VI-A): random
  * `(s, t, [τb, τb + θ − 1])` triples such that `s` can temporally reach `t` within
  * the interval (strict-ascending reachability; a temporal walk implies a temporal
  * simple path, so every generated query has a non-empty tspG).
  *
  * Deterministic in `(graph, theta, count, seed)` via rejection sampling: draw `s`
  * among vertices with out-edges and `τb` as the timestamp of a uniformly random edge
  * (activity-weighted, so query windows land where interactions actually happen — the
  * satisfiability requirement biases the paper's workload the same way), compute plain
  * earliest arrivals from `s` (no avoided vertex), and draw `t` among the reached
  * vertices.
  */
object Workload {

  def queries(g: TemporalGraph, theta: Int, count: Int, seed: Long): IndexedSeq[TspgQuery] = {
    require(g.m > 0, "cannot build a workload on an empty graph")
    val rng     = new Random(seed)
    val sources = (0 until g.n).filter(u => g.outEdges(u).nonEmpty).toIndexedSeq
    val out     = IndexedSeq.newBuilder[TspgQuery]
    var produced = 0
    var attempts = 0
    val maxAttempts = count * 1000
    while (produced < count && attempts < maxAttempts) {
      attempts += 1
      val s    = sources(rng.nextInt(sources.length))
      val tauB = g.edges(rng.nextInt(g.m)).ts
      val tauE = tauB + theta - 1
      val arr  = PolarityTime.earliestArrivals(g, s, tauB, tauE, avoid = -1, avoid2 = -1)
      val reachable = (0 until g.n).filter(v => v != s && arr(v) != PolarityTime.NoArrival)
      if (reachable.nonEmpty) {
        val t = reachable(rng.nextInt(reachable.length))
        out += TspgQuery(s, t, tauB, tauE)
        produced += 1
      }
    }
    require(produced == count,
      s"workload generation exhausted after $attempts attempts ($produced/$count)")
    out.result()
  }
}
