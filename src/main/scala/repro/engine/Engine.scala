package repro.engine

import repro.core.SgaExpr
import repro.core.Model.Sge
import repro.physical.{Dataflow, Delta, Mode, PhysicalExec}
import scala.collection.mutable

/** Per-slide execution statistics. */
final case class SlideStat(
    bucketStart: Long,
    nanos: Long,
    edges: Int,
    inserts: Int,
    deletes: Int)

/** Result of a persistent-query run (paper §7.1.2 metrics).
  *
  * - `throughputEps` — average throughput: relevant input edges per
  *   second of total processing time;
  * - `tailLatencyMs` — 99th-percentile latency of a window slide (the
  *   time to process all arriving and expired sgts of one slide and
  *   produce the new results).
  */
final case class RunResult(
    mode: Mode,
    slide: Long,
    stats: List[SlideStat],
    resultLog: List[(Long, Delta)],
    finalStateSize: Long) {

  def totalEdges: Long = stats.map(_.edges.toLong).sum
  def totalNanos: Long = stats.map(_.nanos).sum
  def totalResults: Long = stats.map(_.inserts.toLong).sum

  def throughputEps: Double = if (totalNanos == 0) 0.0 else totalEdges * 1e9 / totalNanos

  def tailLatencyMs: Double = {
    if (stats.isEmpty) return 0.0
    val sorted = stats.map(_.nanos).sorted
    val idx    = math.min(sorted.size - 1, math.ceil(0.99 * sorted.size).toInt - 1)
    sorted(math.max(idx, 0)) / 1e6
  }

  /** Distinguished-attribute snapshot of the query answer at time `t`
    * (paper Def. 12/13), reconstructed from the emitted result stream.
    *
    * Direct mode: results carry exact validity intervals — membership is
    * `∃ emitted r : r.ts <= t < r.exp`. Negative-tuple mode: deletions
    * happen when the window advances past a slide boundary, so the net
    * count reflects the snapshot at `bucketStart + slide - 1`; `t` must
    * be slide-aligned that way for an exact answer.
    */
  def snapshotAt(t: Long): Set[(Long, Long)] = mode match {
    case Mode.Direct =>
      resultLog.collect { case (_, d) if d.sign == 1 && d.sgt.validAt(t) => (d.sgt.src, d.sgt.trg) }.toSet
    case _ =>
      val counts = mutable.HashMap.empty[(Long, Long), Int]
      for ((bucket, d) <- resultLog if bucket + slide - 1 <= t)
        counts.updateWith((d.sgt.src, d.sgt.trg))(c => Some(c.getOrElse(0) + d.sign))
      // NB: iterator first — Map.collect over pair-valued results would
      // rebuild a Map and silently collide on the first component.
      counts.iterator.collect { case (k, c) if c > 0 => k }.toSet
  }
}

/** Drives a persistent SGQ over a finite prefix of a graph stream.
  *
  * The slide interval β controls the granularity at which the time-based
  * sliding window progresses (paper §7.1.2): input sges are grouped into
  * β-sized buckets by event time; each bucket is one window movement —
  * `advance` (expire old state / emit negative tuples) followed by
  * tuple-at-a-time ingestion of the bucket's sges.
  */
object Engine {

  def run(expr: SgaExpr, mode: Mode, stream: Seq[Sge], slide: Long,
          keepLog: Boolean = true): RunResult = {
    val df = PhysicalExec.build(expr, mode)
    runOn(df, mode, stream, slide, keepLog)
  }

  /** @throws IllegalArgumentException if `stream` is not ts-ordered: the
    * slide loop and the direct-mode [[repro.physical.Coalescer]] assume
    * in-order input.
    */
  def runOn(df: Dataflow, mode: Mode, stream: Seq[Sge], slide: Long,
            keepLog: Boolean = true): RunResult = {
    requireOrdered(stream)
    val relevant = stream.filter(e => df.relevantLabels.contains(e.label))
    val stats    = mutable.ListBuffer.empty[SlideStat]
    val log      = mutable.ListBuffer.empty[(Long, Delta)]

    if (relevant.nonEmpty) {
      // Every slide boundary fires, including edge-free ones — window
      // movements are timer-driven, and the negative-tuple WSCAN must
      // emit expirations on time even when nothing arrives.
      val firstBucket = (relevant.head.ts / slide) * slide
      val lastBucket  = (relevant.last.ts / slide) * slide
      var i = 0
      var bucketStart = firstBucket
      while (bucketStart <= lastBucket) {
        val bucketEnd = bucketStart + slide
        val t0 = System.nanoTime()
        df.advance(bucketStart)
        var edges = 0
        while (i < relevant.length && relevant(i).ts < bucketEnd) {
          df.ingest(relevant(i))
          edges += 1
          i += 1
        }
        val deltas = df.drain()
        val nanos  = System.nanoTime() - t0
        var inserts = 0
        var deletes = 0
        for (d <- deltas) {
          if (d.sign == 1) inserts += 1 else deletes += 1
          if (keepLog) log += ((bucketStart, d))
        }
        stats += SlideStat(bucketStart, nanos, edges, inserts, deletes)
        bucketStart = bucketEnd
      }
    }
    RunResult(mode, slide, stats.toList, log.toList, df.stateSize)
  }

  private def requireOrdered(stream: Seq[Sge]): Unit = {
    val it   = stream.iterator
    var prev = Long.MinValue
    var i    = 0
    while (it.hasNext) {
      val ts = it.next().ts
      if (ts < prev)
        throw new IllegalArgumentException(
          s"input stream is not ts-ordered: sge $i has ts $ts < ts $prev of sge ${i - 1}")
      prev = ts
      i += 1
    }
  }
}
