package perfbench

/** Latency summary of one run. Failed queries count as `+∞`, so a percentile that
  * falls on a failure is `+∞` and a run whose failures exceed half its queries has
  * an infinite median.
  */
final case class LatencySummary(samples: Int, p50Ms: Double, p95Ms: Option[Double], maxMs: Double)

object Stats {

  /** Fewest samples for which p95 is reported: at least 10 samples lie beyond it. */
  val MinSamplesForP95 = 200

  /** Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending array. */
  def percentile(sorted: Array[Double], p: Double): Double = {
    require(sorted.nonEmpty, "percentile of no samples")
    val rank = math.ceil(p / 100.0 * sorted.length).toInt
    sorted(math.min(sorted.length, math.max(1, rank)) - 1)
  }

  /** `latenciesMs` holds one entry per attempted query, `+∞` for a failed one. */
  def summarize(latenciesMs: Seq[Double]): LatencySummary = {
    val sorted = latenciesMs.toArray.sorted
    LatencySummary(
      samples = sorted.length,
      p50Ms = percentile(sorted, 50),
      p95Ms = if (sorted.length >= MinSamplesForP95) Some(percentile(sorted, 95)) else None,
      maxMs = sorted.last,
    )
  }

  def median(xs: Seq[Double]): Double = percentile(xs.toArray.sorted, 50)
}

/** Minimal JSON rendering for the result line and the trace file. */
object Json {

  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'            => b ++= "\\\""
      case '\\'           => b ++= "\\\\"
      case c if c < ' '   => b ++= f"\\u${c.toInt}%04x"
      case c              => b += c
    }
    (b += '"').result()
  }

  /** A finite number; JSON has no infinities, so callers clamp before rendering. */
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"not a JSON number: $x")
    x.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
