package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic data generators (DESIGN.md §2.3). Deterministic in their parameters,
  * so the DuckDB oracle and repeated runs see identical input.
  */
object SynthData {

  /** Directed temporal graph edges `(src, dst, ts)` — the schema evaluated by the
    * tspG paper (temporal-graph substitution for its 10 SNAP/KONECT datasets).
    *
    * Endpoint ranks are drawn log-uniformly over `1..nVertices` (`rank =
    * ⌊nVertices^(u^alpha)⌋`, pmf ∝ 1/rank — a Zipf-shaped heavy tail with hubs at
    * small ids, like the email/stack-exchange/wiki graphs of the paper; `alpha ≥ 1`
    * adds extra hub mass). `src` and `dst` use independent seeds.
    *
    * Timestamps are *bursty*: `ts = ⌈T^(u^tsShape)⌉`, so early timestamps are denser
    * than late ones, mirroring the temporal concentration of real interaction graphs
    * — short intervals inside the active period hold a disproportionate share of
    * edges while most of the timestamp domain is quiet. The default `tsShape = 0.3`
    * is calibrated so a θ-span window holds ~0.5–7% of all edges depending on its
    * position, the same range the paper's TABLE I datasets exhibit (`m·θ/|T|`
    * relative to `m`). `tsShape = 1` is log-uniform (extreme burst), larger values
    * burst harder, `tsShape → 0` approaches uniform.
    *
    * Self-loops are dropped and triples de-duplicated, so the realized edge count
    * sits somewhat below the `nEdges` draw target (the realized count is what Table I
    * reports). Deterministic in all parameters.
    */
  def temporalEdges(spark: SparkSession, nVertices: Long, nEdges: Long,
                    nTimestamps: Long, alpha: Double = 1.05, seed: Long = 7,
                    tsShape: Double = 0.3): DataFrame = {
    import spark.implicits._
    def logUniform(bound: Long, shape: Double, colSeed: Long) =
      least(lit(bound),
        greatest(lit(1L),
          pow(lit(bound.toDouble), pow(rand(colSeed), lit(shape))).cast(LongType)))
    spark.range(nEdges).select(
      logUniform(nVertices, alpha, seed)          as "src",
      logUniform(nVertices, alpha, seed + 1)      as "dst",
      logUniform(nTimestamps, tsShape, seed + 2)  as "ts",
    ).where($"src" =!= $"dst").distinct()
  }
}
