package repro.oracle

import repro.core.{Dfa, SgaExpr}

/** Compiles an [[SgaExpr]] snapshot evaluation into a single DuckDB SQL
  * statement, for use with `repro.Oracle.assertEquivalent`.
  *
  * The input stream is expected as a table ``stream(src, trg, label, ts)``
  * (all VARCHAR — the oracle loads DataFrames untyped). WSCAN windowing,
  * joins, unions, filters and the PATH reachability (as a recursive CTE
  * over a DFA-transition VALUES table) are all computed *inside DuckDB*,
  * so none of the Scala/Spark code under test participates in producing
  * the expected answer.
  */
object SgaOracle {

  /** Full statement: `SELECT DISTINCT src, trg FROM <answer> ORDER BY 1,2`. */
  def snapshotSql(expr: SgaExpr, t: Long): String = {
    val b = new Builder(t)
    val top = b.compile(expr)
    s"WITH RECURSIVE\n${b.ctes.mkString(",\n")}\nSELECT DISTINCT src, trg FROM $top"
  }

  private final class Builder(t: Long) {
    val ctes = scala.collection.mutable.ListBuffer.empty[String]
    private var n = 0
    private def fresh(prefix: String): String = { n += 1; s"${prefix}_$n" }

    def compile(e: SgaExpr): String = e match {
      case w @ SgaExpr.Wscan(l, size, slide) =>
        val name = fresh("scan")
        // τ_t(W(S)) per Def. 16 — arrived by t and not yet expired at t.
        ctes += s"""$name AS (
          |  SELECT DISTINCT src, trg FROM stream
          |  WHERE label = '$l'
          |    AND CAST(ts AS BIGINT) <= $t
          |    AND $t < (CAST(ts AS BIGINT) // ${slide}) * ${slide} + ${size}
          |)""".stripMargin
        name

      case SgaExpr.Filter(in, pred) =>
        val child = compile(in)
        val name  = fresh("filt")
        ctes += s"$name AS (\n  SELECT src, trg FROM $child WHERE ${pred.sql}\n)"
        name

      case SgaExpr.Union(ins, _) =>
        val children = ins.map(compile)
        val name     = fresh("uni")
        ctes += s"$name AS (\n${children.map(c => s"  SELECT src, trg FROM $c").mkString("\n  UNION\n")}\n)"
        name

      case SgaExpr.Pattern(ins, eqs, outSrc, outTrg, _) =>
        val children = ins.map(compile)
        val name     = fresh("pat")
        def ref(p: SgaExpr.Pos) = s"t${p.input}.${if (p.isSrc) "src" else "trg"}"
        val from  = children.zipWithIndex.map { case (c, i) => s"$c t$i" }.mkString(", ")
        val where = if (eqs.isEmpty) "TRUE" else eqs.map { case (a, b) => s"${ref(a)} = ${ref(b)}" }.mkString(" AND ")
        ctes += s"""$name AS (
          |  SELECT DISTINCT ${ref(outSrc)} AS src, ${ref(outTrg)} AS trg
          |  FROM $from WHERE $where
          |)""".stripMargin
        name

      case SgaExpr.Path(ins, regex, _) =>
        val children = ins.map(compile)
        val dfa      = Dfa.fromRegex(regex)
        val edgesCte = fresh("pedges")
        val labeled = children.zip(ins).map { case (c, in) =>
          s"  SELECT src, trg, '${in.outLabel}' AS label FROM $c"
        }
        ctes += s"$edgesCte AS (\n${labeled.mkString("\n  UNION ALL\n")}\n)"

        val transCte = fresh("ptrans")
        val rows = dfa.transitions.toSeq.sortBy(x => (x._1._1, x._1._2))
          .map { case ((s, l), q) => s"($s, '$l', $q)" }
        ctes += s"$transCte(t_from, t_label, t_to) AS (\n  VALUES ${rows.mkString(", ")}\n)"

        val reachCte = fresh("preach")
        val finals   = dfa.finals.mkString(", ")
        // Recursive DFA-product reachability; UNION (set) ⇒ termination on
        // cycles. Non-empty paths only — finality is tested on states
        // reached after ≥1 transition, matching every other layer.
        ctes += s"""$reachCte(s, st, t) AS (
          |  SELECT e.src, tr.t_to, e.trg
          |  FROM $edgesCte e JOIN $transCte tr
          |    ON tr.t_label = e.label AND tr.t_from = ${dfa.start}
          |  UNION
          |  SELECT r.s, tr.t_to, e.trg
          |  FROM $reachCte r
          |  JOIN $edgesCte e ON r.t = e.src
          |  JOIN $transCte tr ON tr.t_from = r.st AND tr.t_label = e.label
          |)""".stripMargin

        val name = fresh("path")
        ctes += s"$name AS (\n  SELECT DISTINCT s AS src, t AS trg FROM $reachCte WHERE st IN ($finals)\n)"
        name
    }
  }
}
