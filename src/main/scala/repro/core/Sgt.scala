package repro.core

/** Data model of the streaming graph framework (paper §3).
  *
  * Vertices are `Long` ids, labels are `String`s, time is a discrete
  * non-negative `Long` domain (paper Def. 1–5).
  */
object Model {

  /** A plain directed labeled edge (paper Def. 1). */
  final case class Edge(src: Long, trg: Long, label: String) {
    override def toString: String = s"$src-[$label]->$trg"
  }

  /** A streaming graph edge: an input-stream element carrying the event
    * timestamp assigned by the source (paper Def. 3).
    */
  final case class Sge(src: Long, trg: Long, label: String, ts: Long)

  /** A streaming graph tuple (paper Def. 7).
    *
    * Distinguished attributes: `src`, `trg`, `label`. Non-distinguished:
    * the validity interval `[ts, exp)` and the payload `path` — the
    * sequence of input edges that derived this tuple (a single edge for
    * input sgts, the materialized path for PATH results). Paths are thus
    * first-class citizens of the model (requirement R3).
    */
  final case class Sgt(
      src: Long,
      trg: Long,
      label: String,
      ts: Long,
      exp: Long,
      path: Seq[Edge]) {

    /** Value-equivalence key (paper Def. 10): distinguished attributes only. */
    def key: (Long, Long, String) = (src, trg, label)

    /** Whether this tuple is valid at time instant `t` (paper Def. 5). */
    def validAt(t: Long): Boolean = ts <= t && t < exp
  }

  object Sgt {

    /** Lift an input stream element into an sgt with the NOW interval
      * `[t, t+1)` (paper §3.1); WSCAN re-assigns real window intervals.
      */
    def fromSge(e: Sge): Sgt =
      Sgt(e.src, e.trg, e.label, e.ts, e.ts + 1, List(Edge(e.src, e.trg, e.label)))
  }

  /** Half-open validity-interval arithmetic (paper Def. 5, 11, 19, 20). */
  object Interval {

    /** `[ts1,exp1) ∩ [ts2,exp2)`, or `None` when disjoint. */
    def intersect(ts1: Long, exp1: Long, ts2: Long, exp2: Long): Option[(Long, Long)] = {
      val ts  = math.max(ts1, ts2)
      val exp = math.min(exp1, exp2)
      if (ts < exp) Some((ts, exp)) else None
    }

    /** Overlapping-or-adjacent test used by the coalesce primitive. */
    def mergeable(ts1: Long, exp1: Long, ts2: Long, exp2: Long): Boolean =
      math.max(ts1, ts2) <= math.min(exp1, exp2)
  }

  /** Coalesce primitive (paper Def. 11): merge value-equivalent sgts with
    * overlapping/adjacent intervals into `[min ts, max exp)`. The payload
    * aggregation follows the paper's S-PATH choice: keep the payload of
    * the representative with the largest expiry (arbitrary path semantics
    * allows any valid witness).
    */
  def coalesce(ts: Seq[Sgt]): Seq[Sgt] = {
    ts.groupBy(_.key).valuesIterator.flatMap { group =>
      val sorted = group.sortBy(t => (t.ts, t.exp))
      val out    = scala.collection.mutable.ListBuffer.empty[Sgt]
      var cur    = sorted.head
      for (t <- sorted.tail) {
        if (Interval.mergeable(cur.ts, cur.exp, t.ts, t.exp)) {
          val payload = if (t.exp >= cur.exp) t.path else cur.path
          cur = cur.copy(ts = math.min(cur.ts, t.ts), exp = math.max(cur.exp, t.exp), path = payload)
        } else {
          out += cur
          cur = t
        }
      }
      out += cur
      out.toList
    }.toSeq
  }
}
