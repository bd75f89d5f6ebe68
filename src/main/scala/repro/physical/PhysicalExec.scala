package repro.physical

import repro.core.SgaExpr
import repro.core.Model.{Sge, Sgt}
import scala.collection.immutable.VectorBuilder
import scala.collection.mutable

/** Compiles an [[SgaExpr]] into a physical dataflow of incremental
  * operators (paper §7.1.1): the physical plan is derived directly from
  * the logical plan by substituting each logical operator with its
  * physical counterpart — WSCAN → map, FILTER/UNION → standard stateless
  * and counting/coalescing nodes, PATTERN → pipelined symmetric hash
  * joins, PATH → S-PATH (direct) or the negative-tuple algorithm.
  */
object PhysicalExec {

  /** Build a dataflow for `expr` in the given mode. */
  def build(expr: SgaExpr, mode: Mode): Dataflow = {
    val nodes   = mutable.ArrayBuffer.empty[Node]
    val sources = mutable.ArrayBuffer.empty[WscanNode]

    def compile(e: SgaExpr): Node = {
      val node: Node = e match {
        case w: SgaExpr.Wscan =>
          val n = new WscanNode(w, mode)
          sources += n
          n
        case SgaExpr.Filter(in, pred) =>
          val n = new FilterNode(pred)
          wire(compile(in), n, 0)
          n
        case SgaExpr.Union(ins, d) =>
          val n = new UnionNode(d, SetSemantics(mode))
          ins.zipWithIndex.foreach { case (c, i) => wire(compile(c), n, i) }
          n
        case p: SgaExpr.Pattern =>
          val n = new PatternNode(p, SetSemantics(mode))
          p.ins.zipWithIndex.foreach { case (c, i) => wire(compile(c), n, i) }
          n
        case SgaExpr.Path(ins, regex, d) =>
          val n: Node = mode match {
            case Mode.Direct        => new SPathNode(regex, d)
            case Mode.NegativeTuple => new NtPathNode(regex, d)
            case Mode.Differential  => new DdPathNode(regex, d)
          }
          ins.zipWithIndex.foreach { case (c, i) => wire(compile(c), n, i) }
          n
      }
      nodes += node
      node
    }

    def wire(child: Node, parent: Node, slot: Int): Unit = {
      child.parent = parent
      child.slotInParent = slot
    }

    val root = compile(expr)
    // `nodes` is post-order (children before parents) — the advance order.
    new Dataflow(root, sources.toList, nodes.toList)
  }
}

/** A compiled physical plan: routes source sges to WSCAN leaves, drives
  * window slides, and collects the signed result stream at the root.
  */
final class Dataflow(val root: Node, val sources: List[WscanNode], val nodes: List[Node]) {
  private var out = new VectorBuilder[Delta]
  root.sink = out

  private val byLabel: Map[String, List[WscanNode]] = sources.groupBy(_.label)

  /** Input-stream labels this plan consumes; other sges are discarded
    * (paper §7.2.1 discards edges whose label is not in the query).
    */
  val relevantLabels: Set[String] = byLabel.keySet

  /** Ingest one source element, fanning out to every WSCAN on its label. */
  def ingest(e: Sge): Unit =
    byLabel.get(e.label).foreach(_.foreach(_.receive(Delta(Sgt.fromSge(e), 1), 0)))

  /** Slide the window forward to `now`: leaf-to-root so the negative-
    * tuple WSCAN deletions cascade through already-purged parents.
    */
  def advance(now: Long): Unit = nodes.foreach(_.advance(now))

  /** Drain results accumulated since the last call: the sink's contents
    * are handed over as they are, and a fresh sink takes their place.
    */
  def drain(): Seq[Delta] = {
    val r = out.result()
    out = new VectorBuilder[Delta]
    root.sink = out
    r
  }

  /** Total operator state (tuples/tree nodes) across stateful nodes. */
  def stateSize: Long = nodes.iterator.map(_.stateSize).sum
}
