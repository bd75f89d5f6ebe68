package repro.physical

import repro.core.Model.Sgt
import repro.core.SgaExpr
import scala.collection.mutable

/** Execution mode of the physical dataflow (paper §6, §7.2.2).
  *
  * - [[Mode.Direct]] — the paper's approach: operators rely on validity
  *   intervals to locate expired tuples directly; no deletion processing
  *   for window movements.
  * - [[Mode.NegativeTuple]] — the negative-tuple approach of [62]:
  *   windows are evolving collections, every expiration is an explicit
  *   deletion (a negative tuple) that flows through the operators. PATH
  *   ([[NtPathNode]]) keeps DD's level forest, repairs a deletion by a
  *   two-phase decremental BFS and gives each insertion a witness path.
  */
sealed trait Mode
object Mode {
  case object Direct extends Mode
  case object NegativeTuple extends Mode
  /** Differential-Dataflow-style baseline: like [[NegativeTuple]] for
    * windows/joins, but PATH is a round-stratified incremental fixpoint
    * ([[DdPathNode]]) — tuples live at their minimal iteration round and
    * window churn forces round re-stabilization, the cost profile of
    * DD's `iterate` + `distinct` (paper §7.2.2).
    */
  case object Differential extends Mode

  /** Window handling: does this mode rely on explicit deletions? */
  def usesNegativeTuples(m: Mode): Boolean = m != Direct
}

/** A signed tuple flowing through the dataflow: `sign = +1` insert,
  * `sign = -1` delete (negative tuple).
  */
final case class Delta(sgt: Sgt, sign: Int) {
  require(sign == 1 || sign == -1, "sign must be ±1")
}

/** A dataflow operator node. Children push deltas into their parent's
  * `receive(delta, slot)`; outputs propagate by calling `emit`, which
  * forwards to the parent (or the sink at the root). `advance(now)` is
  * invoked once per window slide before the slide's batch, leaf-to-root:
  * direct-mode operators purge expired state, the negative-tuple WSCAN
  * emits deletions for expired inputs.
  */
abstract class Node {
  var parent: Node = _
  var slotInParent: Int = -1
  var sink: mutable.Growable[Delta] = _

  protected final def emit(d: Delta): Unit =
    if (parent != null) parent.receive(d, slotInParent) else if (sink != null) sink += d

  def receive(d: Delta, slot: Int): Unit
  def advance(now: Long): Unit = {}

  /** Operator state (tuples or tree nodes) resident; 0 for stateless nodes. */
  def stateSize: Long = 0L

  /** Search work, for metrics; 0 outside PATH. S-PATH counts the
    * Expand/Propagate frames it pops (stale ones included); NT and DD the
    * pops of their insertion wave and the steps of their repair (NT's
    * in-edge probes and re-levelling visits, DD's in-neighbour scans and
    * successor re-queues).
    */
  var traversalSteps: Long = 0L
}

/** Set semantics at an operator output: [[Coalescer]] in direct mode,
  * [[CountingDistinct]] under negative tuples. A plan picks the
  * implementation once per mode, so operators never branch on it.
  */
trait SetSemantics {
  /** Offer a signed result; returns the delta to emit, if any. */
  def offer(d: Delta): Option[Delta]
  /** Drop state that expired by `now`. */
  def purge(now: Long): Unit = ()
}

object SetSemantics {
  def apply(mode: Mode): SetSemantics =
    if (mode == Mode.Direct) new Coalescer else new CountingDistinct
}

/** The coalesce rule of paper Def. 11 (temporal coalescing, Böhlen,
  * Snodgrass & Soo, VLDB 1996) for one value-equivalence class: `[ts,
  * exp)` is the interval last emitted for the class (`exp` is
  * `Long.MinValue` before the first emission). The [[Coalescer]] and
  * S-PATH's final-state tree nodes both decide with [[extend]].
  */
class Coalesced {
  var ts: Long  = 0L
  var exp: Long = Long.MinValue

  /** Offers a result valid on `[ts, exp)`; returns whether it must be
    * emitted, with this entry's interval then holding the one to emit.
    * Nothing is emitted if the emitted interval already covers `exp`.
    * Otherwise the emitted interval is extended to the merged one if the
    * two overlap or touch, and replaced by the new one if not.
    */
  final def extend(ts: Long, exp: Long): Boolean = {
    if (exp <= this.exp) return false
    this.ts = if (math.max(this.ts, ts) <= this.exp) math.min(this.ts, ts) else ts
    this.exp = exp
    true
  }
}

/** Coalescer (paper Def. 11 at operator outputs, §5.1): enforces set
  * semantics in direct mode by the one rule of [[Coalesced]], keyed by
  * the distinguished attributes: it suppresses results whose validity is
  * covered by what was already emitted and emits interval-extended
  * results otherwise. Sound for in-order streams (which `Engine.runOn`
  * enforces): a later result for the same key never starts earlier than
  * an already-emitted one with a larger expiry.
  *
  * Every coalescer serves one operator whose results all carry the same
  * label (PATTERN's output label; UNION relabels before it offers), so
  * it keys results by `(src, trg)` alone: one `LongMap` per source over
  * unboxed target ids. S-PATH applies the same rule on its tree nodes
  * instead (see [[SPathNode]]).
  *
  * A key's expiry only grows while it is resident, so each key is
  * scheduled once in an [[ExpiryWheel]] and `purge` re-checks only the
  * keys whose bucket came due: an extended key moves to its new expiry.
  */
final class Coalescer extends SetSemantics {
  private final class Entry(val src: Long, val trg: Long) extends Coalesced

  private val state  = mutable.LongMap.empty[mutable.LongMap[Entry]]
  private val expiry = new ExpiryWheel[Entry]

  def offer(d: Delta): Option[Delta] = {
    require(d.sign == 1, "direct mode never processes deletions")
    val t     = d.sgt
    val bySrc = state.getOrElseUpdate(t.src, mutable.LongMap.empty[Entry])
    var e     = bySrc.getOrNull(t.trg)
    if (e == null) {
      e = new Entry(t.src, t.trg)
      bySrc(t.trg) = e
      expiry.schedule(t.exp, e)
    }
    if (!e.extend(t.ts, t.exp)) None
    else if (e.ts == t.ts) Some(d)
    else Some(Delta(t.copy(ts = e.ts), 1))
  }

  override def purge(now: Long): Unit =
    for (e <- expiry.due(now)) {
      if (e.exp > now) expiry.schedule(e.exp, e)
      else {
        val bySrc = state(e.src)
        bySrc.remove(e.trg)
        if (bySrc.isEmpty) state.remove(e.src)
      }
    }
}

/** Counting-based DISTINCT (classical Counting IVM [35]) for the
  * negative-tuple mode: tracks derivation counts per distinguished key,
  * emitting an insert on 0→1 and a retraction on 1→0.
  *
  * Like the [[Coalescer]], it serves one operator whose results all carry
  * the same label (PATTERN's `p.label`, UNION after relabeling, the NT
  * and DD PATH output label), so it keys counts by `(src, trg)` alone:
  * one `LongMap` per source over unboxed target ids.
  */
final class CountingDistinct extends SetSemantics {
  private val counts = mutable.LongMap.empty[mutable.LongMap[Int]]

  def offer(d: Delta): Option[Delta] = {
    val t     = d.sgt
    val bySrc = counts.getOrElseUpdate(t.src, mutable.LongMap.empty[Int])
    val c     = bySrc.getOrElse(t.trg, 0) + d.sign
    require(c >= 0, s"negative multiplicity for ${t.key} — unbalanced deletes")
    if (c > 0) bySrc(t.trg) = c
    else {
      bySrc.remove(t.trg)
      if (bySrc.isEmpty) counts.remove(t.src)
    }
    if (d.sign == 1 && c == 1) Some(d)
    else if (d.sign == -1 && c == 0) Some(d)
    else None
  }
}

/** WSCAN (Def. 16): assigns validity `[ts, ⌊ts/slide⌋·slide + size)`.
  *
  * In direct mode the interval alone encodes expiry. In negative-tuple
  * mode emitted tuples carry `[ts, ∞)` — the window is simulated the DD
  * way, by buffering every input and emitting an explicit deletion when
  * its window interval has passed (SEQ-WINDOW of CQL, paper §7.2.2).
  * The payload, the input edge itself, is the one `Sgt.fromSge` built.
  *
  * Negative-tuple answers are exact at a slide's last instant, so a
  * tuple valid on `[ts, exp)` is deleted at the start of the first slide
  * whose last instant is at or after `exp`: `⌊exp/β⌋·β`, which is `exp`
  * itself when β divides |W|. That slide must come after the tuple's
  * own, so these modes require |W| ≥ β.
  *
  * @throws IllegalArgumentException in a negative-tuple mode if |W| < β
  */
final class WscanNode(val w: SgaExpr.Wscan, mode: Mode) extends Node {
  require(mode == Mode.Direct || w.size >= w.slide,
    s"window ${w.size} is shorter than its slide ${w.slide}: $mode mode cannot delete on time")
  val label: String = w.label
  private val pending = new ExpiryWheel[Sgt] // NT mode: deletions by window expiry

  override def receive(d: Delta, slot: Int): Unit = {
    require(d.sign == 1, "WSCAN receives only source insertions")
    val e   = d.sgt
    val exp = w.expiryOf(e.ts)
    mode match {
      case Mode.Direct =>
        emit(Delta(e.copy(exp = exp), 1))
      case _ =>
        // Identity in NT mode is values-only: a retraction must be
        // indistinguishable from its insertion, so intervals are vacuous
        // (`[0, ∞)`); the real expiry drives the deletion schedule below.
        val t = e.copy(ts = 0L, exp = Long.MaxValue)
        pending.schedule(exp / w.slide * w.slide, t)
        emit(Delta(t, 1))
    }
  }

  override def advance(now: Long): Unit = mode match {
    case Mode.Direct => ()
    case _           => pending.due(now).foreach(t => emit(Delta(t, -1)))
  }
}

/** FILTER (Def. 17): stateless predicate on distinguished attributes;
  * deletions pass through symmetrically.
  */
final class FilterNode(pred: SgaExpr.SgtPredicate) extends Node {
  override def receive(d: Delta, slot: Int): Unit =
    if (pred(d.sgt.src, d.sgt.trg, d.sgt.label)) emit(d)
}

/** UNION (Def. 18) with relabeling; `distinct` restores set semantics. */
final class UnionNode(outLabel: String, distinct: SetSemantics) extends Node {
  override def receive(d: Delta, slot: Int): Unit =
    distinct.offer(Delta(d.sgt.copy(label = outLabel), d.sign)).foreach(emit)

  override def advance(now: Long): Unit = distinct.purge(now)
}
