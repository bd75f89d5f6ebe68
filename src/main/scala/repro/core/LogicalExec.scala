package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Snapshot-reducible Spark DataFrame backend for SGA expressions.
  *
  * Paper Def. 13/15 define the semantics of a streaming operator through
  * its one-time counterpart applied to the window snapshot:
  * `τ_t(Q(S, W)) = Q^O(τ_t(W(S)))`. This executor implements exactly the
  * right-hand side with Catalyst: given the raw input stream as a
  * DataFrame of sges `(src, trg, label, ts)` and a time instant `t`, it
  * evaluates any [[SgaExpr]] over the snapshot graph at `t` and returns
  * the resulting edges/paths as a DataFrame
  * `(src: Long, trg: Long, label: String, path: array<struct>)`.
  *
  * PATH is evaluated as a DFA-product fixpoint: a reachability frontier
  * `(src, state, trg, path)` repeatedly joined against the snapshot edges
  * until no new `(src, state, trg)` triple appears. The incremental,
  * persistent-query counterpart of this executor is
  * [[repro.physical.PhysicalExec]]; both are cross-checked against the
  * DuckDB oracle in the test suite.
  */
object LogicalExec {

  /** Maximum fixpoint iterations before we declare divergence; snapshots
    * are finite so the loop always terminates well before this bound at
    * test scales.
    */
  val MaxIterations = 200

  /** Evaluate `expr` over the snapshot at time `t` of the input stream
    * `stream(src, trg, label, ts)`.
    */
  def snapshot(spark: SparkSession, expr: SgaExpr, stream: DataFrame, t: Long): DataFrame =
    expr match {
      case w @ SgaExpr.Wscan(l, size, slide) =>
        // τ_t(W(S)): sges whose windowed validity interval contains t
        // (Def. 16): ts <= t < ⌊ts/slide⌋·slide + size.
        stream
          .filter(col("label") === l)
          .filter(col("ts") <= t && lit(t) < (floor(col("ts") / slide) * slide + size))
          .select(
            col("src").cast(LongType) as "src",
            col("trg").cast(LongType) as "trg",
            lit(l) as "label",
            array(struct(col("src").cast(LongType) as "esrc",
                         col("trg").cast(LongType) as "etrg",
                         lit(l) as "elabel")) as "path")
          .dropDuplicates("src", "trg", "label")

      case SgaExpr.Filter(in, pred) =>
        snapshot(spark, in, stream, t).filter(expr_sql(pred.sql))

      case SgaExpr.Union(ins, d) =>
        ins.map(snapshot(spark, _, stream, t))
          .reduce(_ unionByName _)
          .withColumn("label", lit(d))
          .groupBy("src", "trg", "label")
          .agg(first("path") as "path")

      case SgaExpr.Pattern(ins, eqs, outSrc, outTrg, d) =>
        val dfs = ins.zipWithIndex.map { case (in, i) =>
          val e = snapshot(spark, in, stream, t)
          e.select(
            col("src") as s"src_$i", col("trg") as s"trg_$i", col("path") as s"path_$i")
        }
        val joined = dfs.reduce(_ crossJoin _)
        def colOf(p: SgaExpr.Pos) = col((if (p.isSrc) "src_" else "trg_") + p.input)
        val filtered = eqs.foldLeft(joined) { case (df, (a, b)) => df.filter(colOf(a) === colOf(b)) }
        filtered
          .select(
            colOf(outSrc) as "src",
            colOf(outTrg) as "trg",
            lit(d) as "label",
            array(struct(colOf(outSrc) as "esrc", colOf(outTrg) as "etrg", lit(d) as "elabel")) as "path")
          .dropDuplicates("src", "trg", "label")

      case SgaExpr.Path(ins, regex, d) =>
        val dfa = Dfa.fromRegex(regex)
        // Snapshot edges of every input, tagged with their stream label.
        val edges = ins.map(snapshot(spark, _, stream, t))
          .reduce(_ unionByName _)
          .select(col("src"), col("trg"), col("label"), col("path"))
          .dropDuplicates("src", "trg", "label")
          .cache()
        val result = fixpoint(spark, dfa, edges)
        edges.unpersist()
        result.select(col("src"), col("trg"), lit(d) as "label", col("path"))
    }

  /** DFA-product reachability fixpoint over a static edge set. */
  private def fixpoint(spark: SparkSession, dfa: Dfa, edges: DataFrame): DataFrame = {
    import spark.implicits._
    val trans = dfa.transitions.toSeq.map { case ((s, l), q) => (s, l, q) }
      .toDF("t_from", "t_label", "t_to")

    // Materialize an iteration and cut both lineage and attribute ids —
    // self-unions of derived plans otherwise share attribute ids, which
    // breaks Catalyst's Union constraint rewriting.
    def settle(df: DataFrame): DataFrame = {
      val cp = df.localCheckpoint(eager = true)
      spark.createDataFrame(cp.rdd, cp.schema)
    }

    // Frontier/accumulator: (src, state, trg, path).
    var reach = settle(edges
      .join(trans, col("label") === col("t_label") && col("t_from") === dfa.start)
      .select(col("src"), col("t_to") as "state", col("trg"), col("path")))
    var frontier = reach

    var i = 0
    var done = false
    while (!done) {
      i += 1
      require(i <= MaxIterations, s"PATH fixpoint did not converge within $MaxIterations iterations")
      val stepped = frontier.as("r")
        .join(edges.as("e"), col("r.trg") === col("e.src"))
        .join(trans, col("e.label") === col("t_label") && col("r.state") === col("t_from"))
        .select(col("r.src") as "src", col("t_to") as "state", col("e.trg") as "trg",
                concat(col("r.path"), col("e.path")) as "path")
      val novel = settle(stepped
        .join(reach.select(col("src") as "k_src", col("state") as "k_state", col("trg") as "k_trg"),
              col("src") === col("k_src") && col("state") === col("k_state") && col("trg") === col("k_trg"),
              "left_anti")
        .groupBy("src", "state", "trg")
        .agg(first("path") as "path"))
      if (novel.isEmpty) done = true
      else {
        reach = settle(reach.union(novel))
        frontier = novel
      }
    }
    reach
      .filter(col("state").isin(dfa.finals.toSeq: _*))
      .groupBy("src", "trg")
      .agg(first("path") as "path")
  }

  private def expr_sql(sql: String) = org.apache.spark.sql.functions.expr(sql)
}
