package repro.core

/** Per-phase wall-clock timings of one VUG run, in nanoseconds. */
final case class VugTimings(quickNanos: Long, tightNanos: Long, eevNanos: Long) {
  def totalNanos: Long = quickNanos + tightNanos + eevNanos
  def +(o: VugTimings): VugTimings =
    VugTimings(quickNanos + o.quickNanos, tightNanos + o.tightNanos, eevNanos + o.eevNanos)
}

object VugTimings { val zero: VugTimings = VugTimings(0, 0, 0) }

/** Result of one VUG run: the exact tspG plus both upper-bound graphs (kept for the
  * upper-bound-ratio experiments) and phase timings (Exp-4).
  */
final case class VugResult(
    tspg: Subgraph,
    gq: TemporalGraph,
    gt: TemporalGraph,
    timings: VugTimings,
)

/** Verification in Upper-bound Graph — the paper's framework (Algorithm 1):
  * QuickUBG (Algorithms 2+3) → TightUBG (Algorithms 4+5) → EEV (Algorithms 6+7).
  */
object Vug {

  def run(g: TemporalGraph, q: TspgQuery): VugResult = {
    for (v <- Seq(q.s, q.t))
      require(v >= 0 && v < g.n, s"query vertex $v outside vertex universe [0, ${g.n})")
    val t0 = System.nanoTime()
    val gq = QuickUbg.compute(g, q)
    val t1 = System.nanoTime()
    val gt = TightUbg.compute(gq, q)
    val t2 = System.nanoTime()
    val tspg = Eev(gt, q)
    val t3 = System.nanoTime()
    VugResult(tspg, gq, gt, VugTimings(t1 - t0, t2 - t1, t3 - t2))
  }

  /** Just the answer. */
  def tspg(g: TemporalGraph, q: TspgQuery): Subgraph = run(g, q).tspg
}
