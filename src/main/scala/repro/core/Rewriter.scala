package repro.core

/** SGA transformation rules (paper §5.4).
  *
  * The two WSCAN rules — `W(σ(S)) = σ(W(S))` and
  * `W(S1 ∪ S2) = W(S1) ∪ W(S2)` — concern pre-window processing of raw
  * input streams; in this AST the input stream is not an expression
  * (WSCAN is the leaf), so they are validated behaviourally in tests
  * rather than as syntactic rewrites. The PATH rules below drive the
  * plan-space exploration of paper §7.4.
  */
object Rewriter {

  /** Rule "Alternation": `P_{a|b}(S_a, S_b) = ∪(S_a, S_b)` — a PATH whose
    * regex is a top-level alternation of single labels is a UNION.
    */
  def alternationToUnion(e: SgaExpr): Option[SgaExpr] = e match {
    case SgaExpr.Path(ins, Regex.Alt(alts), d) if alts.forall(_.isInstanceOf[Regex.Lbl]) =>
      val byLabel = ins.map(i => i.outLabel -> i).toMap
      val ordered = alts.collect { case Regex.Lbl(l) => byLabel(l) }
      Some(SgaExpr.Union(ordered, d))
    case _ => None
  }

  /** Rule "Concatenation": `P_{a·b}(S_a, S_b) = ⋈_{trg1=src2}(S_a, S_b)` —
    * a PATH whose regex is a concatenation of single labels is a chain of
    * equijoins (a linear PATTERN).
    */
  def concatToPattern(e: SgaExpr): Option[SgaExpr] = e match {
    case SgaExpr.Path(ins, Regex.Concat(parts), d) if parts.forall(_.isInstanceOf[Regex.Lbl]) =>
      val byLabel = ins.map(i => i.outLabel -> i).toMap
      Some(SgaExpr.chain(parts.collect { case Regex.Lbl(l) => byLabel(l) }, d))
    case _ => None
  }

  /** Inverse-direction rewrite used to reach plans like P1 of §7.4: a PATH
    * `P_{d+}` over a *linear* PATTERN `d = l1·…·ln` folds the chain into
    * the closure, `P_{(l1·…·ln)+}(S_l1, …, S_ln)`.
    *
    * Applies only when the pattern is a pure source-to-target chain
    * (equalities `trg_i = src_{i+1}`, endpoints `src_1` / `trg_n`).
    */
  def foldLinearPatternIntoClosure(e: SgaExpr): Option[SgaExpr] = e match {
    case SgaExpr.Path(List(p @ SgaExpr.Pattern(ins, eqs, s, t, d)), reg, out)
        if regexIsClosureOf(reg, d) && isLinearChain(p) =>
      val labels = ins.map(_.outLabel)
      require(labels.distinct == labels, "fold requires distinct input labels")
      val chain = Regex.Concat(labels.map(Regex.Lbl).toList)
      val folded = reg match {
        case Regex.Plus(_) => Regex.Plus(chain)
        case Regex.Star(_) => Regex.Star(chain)
        case other         => other
      }
      Some(SgaExpr.Path(ins, folded, out))
    case _ => None
  }

  private def regexIsClosureOf(r: Regex, label: String): Boolean = r match {
    case Regex.Plus(Regex.Lbl(l)) => l == label
    case Regex.Star(Regex.Lbl(l)) => l == label
    case _                        => false
  }

  /** Whether a PATTERN is a left-to-right chain join (the shape produced
    * by rule "Concatenation" above).
    */
  def isLinearChain(p: SgaExpr.Pattern): Boolean = {
    val n = p.ins.size
    val expected = (0 until n - 1).map(i => Set(SgaExpr.trg(i): Any, SgaExpr.src(i + 1): Any)).toSet
    val actual   = p.equalities.map { case (a, b) => Set(a: Any, b: Any) }.toSet
    actual == expected && p.outSrc == SgaExpr.src(0) && p.outTrg == SgaExpr.trg(n - 1)
  }

  /** Exhaustively apply the two paper §5.4 PATH rules bottom-up once. */
  def simplifyPaths(e: SgaExpr): SgaExpr = {
    val rec = e match {
      case SgaExpr.Filter(in, p)             => SgaExpr.Filter(simplifyPaths(in), p)
      case SgaExpr.Union(ins, d)             => SgaExpr.Union(ins.map(simplifyPaths), d)
      case SgaExpr.Pattern(ins, q, s, t, d)  => SgaExpr.Pattern(ins.map(simplifyPaths), q, s, t, d)
      case SgaExpr.Path(ins, r, d)           => SgaExpr.Path(ins.map(simplifyPaths), r, d)
      case w: SgaExpr.Wscan                  => w
    }
    alternationToUnion(rec).orElse(concatToPattern(rec)).getOrElse(rec)
  }
}
