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
}
