package perfbench

import java.io.File
import java.nio.charset.StandardCharsets
import java.security.MessageDigest

import scala.io.Source

import repro.core.{PathEnum, Subgraph, TEdge, TemporalGraph, TspgQuery}

/** What a benchmark keeps of one answer for checking after the timed region. */
final case class Answer(tspg: Subgraph, gq: Array[TEdge], gt: Array[TEdge])

object Digest {

  /** SHA-256 prefix of the tspG edge list sorted by `(ts, src, dst)`. */
  def of(tspg: Subgraph): String = {
    val text = tspg.edges.toArray.sortBy(e => (e.ts, e.src, e.dst))
      .map(e => s"${e.src}>${e.dst}@${e.ts}").mkString(";")
    MessageDigest.getInstance("SHA-256").digest(text.getBytes(StandardCharsets.UTF_8))
      .take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}

/** Golden per-query digests for one pool: line `i` of the file is the digest of the
  * tspG of pool query `i` for the default seed, or `-` where the reference run did
  * not finish it.
  */
object Golden {

  def load(file: File): IndexedSeq[String] =
    if (!file.isFile) IndexedSeq.empty
    else {
      val src = Source.fromFile(file, "UTF-8")
      try src.getLines().map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#")).toIndexedSeq
      finally src.close()
    }
}

/** Answer checks, run outside the timed region.
  *
  * Every answer must satisfy `∅ ≠ tspG ⊆ Gt ⊆ Gq ⊆ window(g)` with tspG's vertices
  * exactly its edge endpoints, match the golden digest where one exists, and match
  * the first answer given to the same pool query. While `referenceBudgetNs` lasts,
  * each distinct pool query is also re-solved by exhaustive enumeration on `Gt`
  * (capped); when enumeration completes, its edge set must equal tspG's.
  */
final class Checker(g: TemporalGraph, golden: IndexedSeq[String], referenceBudgetNs: Long,
                    referenceCapNs: Long = 50L * 1000 * 1000, referenceMaxPaths: Long = 200000L) {

  var referenceChecked = 0
  private var referenceSpentNs = 0L
  private val firstDigest = scala.collection.mutable.HashMap.empty[Int, String]

  /** `None` if the answer to pool query `index` passes every check, else why not. */
  def check(index: Int, q: TspgQuery, a: Answer): Option[String] = {
    val digest = Digest.of(a.tspg)
    val gqSet  = a.gq.toSet
    val gtSet  = a.gt.toSet
    if (a.tspg.isEmpty) Some("empty tspG for a satisfiable query")
    else if (a.tspg.vertices != a.tspg.edges.flatMap(e => Set(e.src, e.dst)))
      Some("tspG vertices are not exactly its edge endpoints")
    else if (!a.tspg.edges.subsetOf(gtSet)) Some("tspG is not a subgraph of Gt")
    else if (!gtSet.subsetOf(gqSet)) Some("Gt is not a subgraph of Gq")
    else if (!a.gq.forall(e => e.ts >= q.tauB && e.ts <= q.tauE && Checker.contains(g, e)))
      Some("Gq is not a subgraph of the query window")
    else if (firstDigest.getOrElseUpdate(index, digest) != digest)
      Some("answer differs from an earlier answer to the same query")
    else if (index < golden.size && golden(index) != "-" && golden(index) != digest)
      Some(s"digest $digest differs from golden ${golden(index)}")
    else reference(q, a)
  }

  private val referenceDone = scala.collection.mutable.HashSet.empty[(Int, Int, Int, Int)]

  private def reference(q: TspgQuery, a: Answer): Option[String] = {
    val key = (q.s, q.t, q.tauB, q.tauE)
    if (referenceSpentNs >= referenceBudgetNs || !referenceDone.add(key)) None
    else {
      val t0 = System.nanoTime()
      val n  = (a.gt.iterator.flatMap(e => Iterator(e.src, e.dst)) ++ Iterator(q.s, q.t)).max + 1
      val r  = PathEnum.run(TemporalGraph(n, a.gt), q, referenceMaxPaths, referenceCapNs)
      referenceSpentNs += System.nanoTime() - t0
      if (!r.complete) None
      else {
        referenceChecked += 1
        if (r.subgraph.edges == a.tspg.edges) None
        else Some(s"enumeration on Gt finds ${r.subgraph.edgeCount} edges, tspG has ${a.tspg.edgeCount}")
      }
    }
  }
}

object Checker {

  /** Whether `e` is an edge of `g`, by binary search of the `(ts, src, dst)`-sorted edges. */
  def contains(g: TemporalGraph, e: TEdge): Boolean = {
    val es = g.edges
    var lo = 0
    var hi = es.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      val x   = es(mid)
      val c   = if (x.ts != e.ts) Integer.compare(x.ts, e.ts)
                else if (x.src != e.src) Integer.compare(x.src, e.src)
                else Integer.compare(x.dst, e.dst)
      if (c < 0) lo = mid + 1 else hi = mid
    }
    lo < es.length && es(lo) == e
  }

  /** Number of edges of `g` with timestamp in `[q.tauB, q.tauE]`. */
  def windowEdges(g: TemporalGraph, q: TspgQuery): Int = {
    def firstAtLeast(ts: Int): Int = {
      var lo = 0
      var hi = g.m
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (g.edges(mid).ts < ts) lo = mid + 1 else hi = mid }
      lo
    }
    firstAtLeast(q.tauE + 1) - firstAtLeast(q.tauB)
  }
}
