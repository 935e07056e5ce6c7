package repro.core

/** A temporal simple path graph query (paper, Problem Statement §II): source `s`,
  * target `t`, and the closed time interval `[tauB, tauE]`.
  */
final case class TspgQuery(s: Int, t: Int, tauB: Int, tauE: Int) {
  require(s != t, s"source and target must differ (got $s)")
  require(tauB <= tauE, s"empty interval [$tauB, $tauE]")
  // The conventions A(s) = τb − 1 and D(t) = τe + 1 must not wrap around.
  require(tauB != Int.MinValue && tauE != Int.MaxValue,
    s"interval [$tauB, $tauE] must lie strictly inside the Int range")

  /** Span of the interval (the paper's `θ = τe − τb + 1`); also an upper bound on the
    * length of any temporal path in the interval (Remark 1).
    */
  def theta: Int = tauE - tauB + 1
}
