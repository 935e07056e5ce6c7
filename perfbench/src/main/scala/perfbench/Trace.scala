package perfbench

import java.io.{File, PrintWriter}

import scala.collection.mutable

/** One traced call: `name` ran from `startNs` to `endNs` (`System.nanoTime`) inside
  * span `parent` (-1 for a query's root span) of query `query`, and allocated
  * `allocBytes` on its thread, children included.
  */
final case class Span(id: Int, parent: Int, query: Int, name: String,
                      startNs: Long, endNs: Long, allocBytes: Long) {
  def nanos: Long = endNs - startNs
}

/** In-memory span recorder. Spans are kept until [[write]] at the end of the run.
  *
  * `span` must be called on the thread that runs the traced code; one query is
  * traced at a time, so a single open-span stack suffices. The current span's name
  * is also announced through `phase`, which tells a deadline which layer it hit.
  */
final class Tracer(val phase: Phase = new Phase) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val open  = mutable.Stack.empty[(Int, String)]
  private var nextId = 0

  def span[A](query: Int, name: String)(body: => A): A = {
    val id     = synchronized { nextId += 1; nextId - 1 }
    val parent = if (open.isEmpty) -1 else open.top._1
    open.push(id -> name)
    phase.enter(name)
    val a0 = Deadline.allocatedBytes()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      val s  = Span(id, parent, query, name, t0, t1, Deadline.allocatedBytes() - a0)
      synchronized(spans += s)
      open.pop()
      phase.enter(if (open.isEmpty) "" else open.top._2)
    }
  }

  /** Forget any spans still open (after a worker was stopped mid-query). */
  def reset(): Unit = { open.clear(); phase.enter("") }

  def all: IndexedSeq[Span] = synchronized(spans.toIndexedSeq)

  /** Self time of each span: its duration minus the time its children cover. */
  def selfNanos: Map[Int, Long] = {
    val s = all
    val childNanos = s.filter(_.parent >= 0).groupMapReduce(_.parent)(_.nanos)(_ + _)
    s.map(x => x.id -> (x.nanos - childNanos.getOrElse(x.id, 0L))).toMap
  }

  /** Write all spans, one JSON object per line. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val self = selfNanos
    val w    = new PrintWriter(file, "UTF-8")
    try all.foreach { s =>
      w.println(Json.obj(Seq(
        "id" -> s.id.toString, "parent" -> s.parent.toString, "query" -> s.query.toString,
        "name" -> Json.str(s.name), "start_ns" -> s.startNs.toString,
        "end_ns" -> s.endNs.toString, "self_ns" -> self(s.id).toString,
        "alloc_bytes" -> s.allocBytes.toString)))
    } finally w.close()
  }
}
