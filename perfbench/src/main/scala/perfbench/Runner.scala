package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

import scala.collection.mutable

/** Outcome of one query call run under a deadline. */
sealed trait Outcome[+A] { def allocBytes: Long }

/** The call returned `value` after `nanos` of wall-clock inside its worker thread. */
final case class Done[A](value: A, nanos: Long, allocBytes: Long) extends Outcome[A]

/** The call threw. */
final case class Threw(error: Throwable, allocBytes: Long) extends Outcome[Nothing]

/** The call was still running at the deadline; its worker was stopped. `phase` is
  * the phase the call had last announced through [[Phase.enter]] ("" if none).
  */
final case class Missed(phase: String, allocBytes: Long) extends Outcome[Nothing]

/** The phase a worker is currently in, read when a deadline hits. */
final class Phase {
  @volatile private var current = ""
  def enter(name: String): Unit = current = name
  def get: String = current
}

/** Runs a call on a fresh worker thread and stops the worker when the deadline
  * passes, so a runaway query steals no CPU from the queries after it.
  */
object Deadline {

  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  private val WorkerStackBytes = 64L << 20 // deep DFS recursion in enumeration

  def run[A](deadlineMs: Long, phase: Phase = new Phase)(body: => A): Outcome[A] = {
    val result = new AtomicReference[Outcome[A]]()
    val alloc  = new AtomicReference[java.lang.Long](0L)
    val worker = new Thread(null, () => {
      val a0 = allocatedBytes()
      val t0 = System.nanoTime()
      try {
        val v = body
        val t1 = System.nanoTime()
        result.set(Done(v, t1 - t0, allocatedBytes() - a0))
      } catch {
        case e: ThreadDeath => throw e
        case e: Throwable   => result.set(Threw(e, allocatedBytes() - a0))
      } finally alloc.set(allocatedBytes() - a0)
    }, "perfbench-worker", WorkerStackBytes)
    worker.setDaemon(true)
    worker.start()
    worker.join(deadlineMs)
    if (worker.isAlive) {
      val at = phase.get
      worker.stop() // deprecated but effective on JDK 17; the query code holds no shared locks
      worker.join()
      Missed(at, alloc.get)
    } else result.get
  }
}

/** One attempted query of a closed-loop run. */
final case class Attempt[A](client: Int, index: Int, outcome: Outcome[A])

/** Result of a closed-loop run: every attempt, and the wall-clock from the first
  * send to the last reply.
  */
final case class LoopResult[A](attempts: IndexedSeq[Attempt[A]], wallNanos: Long)

/** Closed-loop load: each of `clients` threads sends its next query only after the
  * previous one returned or missed its deadline. Query `i` (counted across clients)
  * is `pool(i % pool.size)`. No new query is sent once `seconds` have passed; queries
  * in flight then still finish (or hit their deadline) and count.
  */
object ClosedLoop {

  def run[Q, A](clients: Int, seconds: Double, pool: IndexedSeq[Q], deadlineMs: Long,
                maxQueries: Int = Int.MaxValue)(call: Q => A): LoopResult[A] = {
    require(pool.nonEmpty, "empty query pool")
    val next    = new AtomicInteger(0)
    val perClient = Array.fill(clients)(mutable.ArrayBuffer.empty[Attempt[A]])
    val start   = System.nanoTime()
    val stopAt  = if (seconds.isInfinite) Long.MaxValue else start + (seconds * 1e9).toLong
    val threads = (0 until clients).map { c =>
      new Thread(() => {
        var go = true
        while (go && System.nanoTime() < stopAt) {
          val i = next.getAndIncrement()
          if (i >= maxQueries) go = false
          else {
            val q = pool(i % pool.size)
            perClient(c) += Attempt(c, i, Deadline.run(deadlineMs)(call(q)))
          }
        }
      }, s"perfbench-client-$c")
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    val wall = System.nanoTime() - start
    LoopResult(perClient.flatten.sortBy(_.index).toIndexedSeq, wall)
  }
}

/** Failure accounting of a closed-loop run. A query fails if it threw, missed its
  * deadline, or gave an answer the checks rejected (`wrong` holds attempt indices);
  * a failed query's latency is `+∞`.
  */
final case class Tally(attempted: Int, completed: Int, misses: Int, errors: Int, wrong: Int,
                       latenciesMs: IndexedSeq[Double], wallNanos: Long) {
  def failed: Int = attempted - completed
  def throughputQps: Double = completed / (wallNanos / 1e9)
  def successRatio: Double = completed.toDouble / attempted
}

object Tally {
  def of[A](loop: LoopResult[A], wrong: Set[Int]): Tally = {
    val lat = loop.attempts.map { a =>
      a.outcome match {
        case Done(_, nanos, _) if !wrong(a.index) => nanos / 1e6
        case _                                    => Double.PositiveInfinity
      }
    }
    Tally(
      attempted   = loop.attempts.size,
      completed   = lat.count(!_.isInfinite),
      misses      = loop.attempts.count(_.outcome.isInstanceOf[Missed]),
      errors      = loop.attempts.count(_.outcome.isInstanceOf[Threw]),
      wrong       = loop.attempts.count(a => wrong(a.index)),
      latenciesMs = lat,
      wallNanos   = loop.wallNanos)
  }
}
