package org.apache.spark

/** Access to Spark internals the benchmark needs: it lives in Spark's package
  * because the listener bus is `private[spark]`.
  */
object PerfbenchHooks {

  /** Blocks until every posted listener event has been delivered, so job and stage
    * counters read afterwards are complete.
    */
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
