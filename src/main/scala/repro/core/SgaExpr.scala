package repro.core

/** Logical Streaming Graph Algebra expressions (paper §5.1).
  *
  * Every operator consumes and produces streaming graphs (sequences of
  * sgts), so the algebra is closed and expressions compose (paper §5.3).
  * The same AST is executed by two backends:
  *   - [[repro.core.LogicalExec]] — snapshot-reducible Spark DataFrame
  *     evaluation (used for correctness vs. the DuckDB oracle), and
  *   - [[repro.physical.PhysicalExec]] — incremental operator networks
  *     (direct / negative-tuple) for persistent evaluation.
  */
sealed trait SgaExpr {

  /** Output label of the sgts this expression produces. */
  def outLabel: String

  /** Input-stream labels (EDB labels) this expression reads. */
  def inputLabels: Set[String] = this match {
    case SgaExpr.Wscan(l, _, _)            => Set(l)
    case SgaExpr.Filter(in, _)             => in.inputLabels
    case SgaExpr.Union(ins, _)             => ins.flatMap(_.inputLabels).toSet
    case SgaExpr.Pattern(ins, _, _, _, _)  => ins.flatMap(_.inputLabels).toSet
    case SgaExpr.Path(ins, _, _)           => ins.flatMap(_.inputLabels).toSet
  }

  /** Pretty-printed algebra expression, close to the paper's notation. */
  def render: String = this match {
    case SgaExpr.Wscan(l, size, slide)       => s"W[$size,$slide]($l)"
    case SgaExpr.Filter(in, pred)            => s"σ[${pred.describe}](${in.render})"
    case SgaExpr.Union(ins, d)               => s"∪[$d](${ins.map(_.render).mkString(", ")})"
    case SgaExpr.Pattern(ins, preds, s, t, d) =>
      val p = preds.map { case (a, b) => s"${a.render}=${b.render}" }.mkString("∧")
      s"⋈[$p -> (${s.render},${t.render}),$d](${ins.map(_.render).mkString(", ")})"
    case SgaExpr.Path(ins, r, d)             => s"P[${r.render},$d](${ins.map(_.render).mkString(", ")})"
  }
}

object SgaExpr {

  /** A position in a PATTERN conjunction: `src_i` or `trg_i` of input `i`
    * (0-based), paper Def. 19.
    */
  final case class Pos(input: Int, isSrc: Boolean) {
    def render: String = (if (isSrc) "src" else "trg") + (input + 1)
  }
  def src(i: Int): Pos = Pos(i, isSrc = true)
  def trg(i: Int): Pos = Pos(i, isSrc = false)

  /** Boolean predicate over distinguished attributes for FILTER (Def. 17). */
  trait SgtPredicate extends Serializable {
    def apply(src: Long, trg: Long, label: String): Boolean
    def describe: String
    /** SQL rendition over columns `src`, `trg`, `label` for the DataFrame
      * backend and the DuckDB oracle. */
    def sql: String
  }

  /** WSCAN (Def. 16): turn input stream with label `label` into a
    * streaming graph with validity `[⌊t/slide⌋·slide, ⌊t/slide⌋·slide + size)`.
    */
  final case class Wscan(label: String, size: Long, slide: Long = 1L) extends SgaExpr {
    require(size > 0 && slide > 0, "window size and slide must be positive")
    def outLabel: String = label
    /** Expiry assigned to a tuple with event timestamp `t` (Def. 16). */
    def expiryOf(t: Long): Long = (t / slide) * slide + size
  }

  /** FILTER (Def. 17). */
  final case class Filter(in: SgaExpr, pred: SgtPredicate) extends SgaExpr {
    def outLabel: String = in.outLabel
  }

  /** UNION (Def. 18) with an optional relabel. */
  final case class Union(ins: List[SgaExpr], label: String) extends SgaExpr {
    require(ins.nonEmpty, "UNION needs at least one input")
    def outLabel: String = label
  }

  /** PATTERN (Def. 19): n-way join under a conjunction of positional
    * equalities; output endpoints are projected from two positions.
    */
  final case class Pattern(
      ins: List[SgaExpr],
      equalities: List[(Pos, Pos)],
      outSrc: Pos,
      outTrg: Pos,
      label: String) extends SgaExpr {
    require(ins.nonEmpty, "PATTERN needs at least one input")
    require((equalities.flatMap(e => List(e._1, e._2)) :+ outSrc :+ outTrg)
              .forall(_.input < ins.length),
            "PATTERN position refers to a missing input")
    def outLabel: String = label
  }

  /** Left-to-right chain join `in_1 ⋈_{trg_1=src_2} in_2 ⋈ … ⋈ in_n`
    * projecting `(src_1, trg_n)` — the PATTERN of rule "Concatenation"
    * (§5.4).
    */
  def chain(ins: List[SgaExpr], outLabel: String): Pattern =
    Pattern(ins, (0 until ins.size - 1).map(i => (trg(i), src(i + 1))).toList,
            src(0), trg(ins.size - 1), outLabel)

  /** PATH (Def. 20): regular-expression navigation over the inputs; the
    * regex alphabet must match the input labels one-to-one.
    */
  final case class Path(ins: List[SgaExpr], regex: Regex, label: String) extends SgaExpr {
    require(regex.labels == ins.map(_.outLabel).toSet,
            s"regex alphabet ${regex.labels} must equal input labels ${ins.map(_.outLabel).toSet}")
    def outLabel: String = label
  }
}
