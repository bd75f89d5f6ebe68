package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.{Rewriter, SgaExpr}
import repro.core.Model.Sge
import repro.engine.Engine
import repro.physical.Mode
import repro.streams.{GraphStreams, Workloads}

/** The one benchmark harness: each paper sweep is a list of [[Config]]s,
  * and [[run]] measures any such list. The `bench/` ScalaTest suites and
  * the spark-submit entry point [[main]] both go through [[run]].
  *
  * Metrics follow paper §7.1.2: average throughput (relevant input edges
  * per second) and the 99th-percentile window-slide latency. `scale`
  * multiplies stream sizes (`BENCH_SCALE` env). Absolute numbers are
  * not the paper's (single-threaded simulation vs. its 32-core server),
  * and shapes move with scale too: SO Q1's refreshes are 9% of its
  * insertions at scale 0.1 and 92% at 0.5.
  */
object BenchRunner {

  val Day: Long = GraphStreams.SecondsPerDay

  /** One row to measure: `expr` on the `graph` stream generated at
    * stream-size multiplier `scale`, sliding every `slide` seconds.
    * `system` "SGA" is the direct approach, "DD" the differential baseline.
    */
  final case class Config(graph: String, query: String, system: String,
                          expr: SgaExpr, slide: Long, scale: Double) {
    def mode: Mode = system match {
      case "SGA" => Mode.Direct
      case "DD"  => Mode.Differential
      case other => throw new IllegalArgumentException(s"unknown system $other")
    }
  }

  /** One measured row: the §7.1.2 metrics, result insertions, final state. */
  final case class BenchRow(graph: String, query: String, system: String, throughputEps: Double,
                            tailLatencyMs: Double, results: Long, stateSize: Long) {
    def pretty: String =
      f"$graph%-5s $query%-4s $system%-4s tput=${throughputEps}%10.0f e/s  " +
      f"tail=${tailLatencyMs}%8.1f ms  results=$results%9d  state=$stateSize%9d"
  }

  def scale: Double = sys.env.get("BENCH_SCALE").map(_.toDouble).getOrElse(0.5)

  /** Query subset from BENCH_QUERIES (comma-separated), default all. */
  def queries: Seq[String] =
    sys.env.get("BENCH_QUERIES").map(_.split(",").toSeq.map(_.trim)).getOrElse(Workloads.queryNames)

  /** The `graph` stream at stream-size multiplier `scale`: SO-sim (dense,
    * cyclic — stress case) or LDBC-sim (typed, tree-shaped replyOf).
    */
  def stream(spark: SparkSession, graph: String, scale: Double): Vector[Sge] = graph match {
    case "SO" =>
      GraphStreams.soSim(spark, nUsers = 300, nEdges = (30000 * scale).toLong.max(1000), spanDays = 120)
    case "LDBC" =>
      GraphStreams.ldbcSim(spark,
        nPersons = 300,
        nPosts = (8000 * scale).toLong.max(500),
        nKnows = (6000 * scale).toLong.max(300),
        nLikes = (26000 * scale).toLong.max(1000),
        spanDays = 120)
  }

  /** Table 2: Q1–Q8 × {SO, LDBC} × {SGA, DD}, |W|=30 days, β=1 day. */
  def table2(queries: Seq[String] = BenchRunner.queries): Seq[Config] =
    for {
      (graph, bind) <- Seq(("SO", Workloads.soBinding _), ("LDBC", Workloads.ldbcBinding _))
      query  <- queries
      system <- Seq("SGA", "DD")
    } yield {
      // Q8's co-target self-join inflates the derived stream quadratically
      // (the paper's own slowest query: 262 e/s, 88 s tails on SO); run it
      // on a tenth-scale stream so the sweep completes. Q4's canonical plan
      // closes over a derived 3-chain stream — the second-heaviest config;
      // halve its stream so the sweep completes. (ROADMAP item 1 re-checks
      // both shrinks.)
      val shrink = query match { case "Q8" => 0.1; case "Q4" => 0.5; case _ => 1.0 }
      Config(graph, query, system, Workloads.expr(query, bind(query), 30 * Day, Day), Day, scale * shrink)
    }

  /** §7.4 plan-space micro-benchmark: the plans [[Rewriter.plans]] derives
    * from Q4 on both graphs (SGA, P1–P3: Fig. 8) and from Q2 and Q3 on SO
    * (SGA, alt: Fig. 9). Plan comparisons are relative; a 0.3x stream
    * keeps the sweep short.
    */
  def planSpace: Seq[Config] = for {
    (graph, query) <- Seq(("SO", "Q4"), ("LDBC", "Q4"), ("SO", "Q2"), ("SO", "Q3"))
    bind  = if (graph == "SO") Workloads.soBinding(query) else Workloads.ldbcBinding(query)
    plans = Rewriter.plans(Workloads.expr(query, bind, 30 * Day, Day))
    (expr, i) <- plans.zipWithIndex
  } yield Config(graph, s"$query/${planName(i, plans.size)}", "SGA", expr, Day, scale * 0.3)

  /** Plan `i` of `n`: "SGA" (canonical), "alt" if it is the only other, else `Pi`. */
  def planName(i: Int, n: Int): String = if (i == 0) "SGA" else if (n == 2) "alt" else s"P$i"

  /** Fig. 6 analogue: window-size and slide-interval sensitivity on SO.
    * `Q1/W=30d` and `Q1/b=1d` (SGA) measure the same config on purpose:
    * the two rows show how far one cold measurement can be trusted.
    */
  def sensitivity: Seq[Config] = {
    // Sensitivity trends are relative; a 0.3x stream keeps the sweep short.
    def cfg(query: String, system: String, expr: SgaExpr, slide: Long) =
      Config("SO", query, system, expr, slide, scale * 0.3)
    val byWindow = for (w <- Seq(7L, 15L, 30L, 60L); query <- Seq("Q1", "Q6"))
      yield cfg(s"$query/W=${w}d", "SGA", Workloads.expr(query, Workloads.soBinding(query), w * Day, Day), Day)
    val bySlide = for (b <- Seq(1L, 3L, 7L); system <- Seq("SGA", "DD"))
      yield cfg(s"Q1/b=${b}d", system, Workloads.expr("Q1", Workloads.soBinding("Q1"), 30 * Day, b * Day), b * Day)
    byWindow ++ bySlide
  }

  private def measure(c: Config, stream: Vector[Sge]): BenchRow = {
    val run = Engine.run(c.expr, c.mode, stream, c.slide, keepLog = false)
    BenchRow(c.graph, c.query, c.system, run.throughputEps, run.tailLatencyMs,
             run.totalResults, run.finalStateSize)
  }

  /** Measures every config in order, generating each `(graph, scale)`
    * stream once; logs each row, writes `<BENCH_OUT>/<name>.md` and
    * returns the rows.
    */
  def run(spark: SparkSession, name: String, configs: Seq[Config]): Seq[BenchRow] = {
    val streams = scala.collection.mutable.Map.empty[(String, Double), Vector[Sge]]
    val rows = configs.map { c =>
      val r = measure(c, streams.getOrElseUpdate((c.graph, c.scale), stream(spark, c.graph, c.scale)))
      Console.err.println(s"[$name] ${r.pretty}")
      r
    }
    val dir = java.nio.file.Paths.get(sys.env.getOrElse("BENCH_OUT", "bench_results"))
    java.nio.file.Files.createDirectories(dir)
    val f = java.nio.file.Files.write(dir.resolve(s"$name.md"), markdown(rows).getBytes("UTF-8"))
    Console.err.println(s"[$name] written: $f")
    rows
  }

  /** Markdown table of bench rows (for `EXPERIMENTS.md`, which waits on
    * ROADMAP item 1).
    */
  def markdown(rows: Seq[BenchRow]): String = {
    val header = "| graph | query | system | throughput (edges/s) | tail latency (ms) | results | state |\n" +
                 "|---|---|---|---:|---:|---:|---:|"
    val body = rows.map(r =>
      f"| ${r.graph} | ${r.query} | ${r.system} | ${r.throughputEps}%.0f | ${r.tailLatencyMs}%.1f | ${r.results} | ${r.stateSize} |")
    (header +: body).mkString("\n")
  }

  /** spark-submit entry point, one table per run:
    * `spark-submit --class repro.bench.BenchRunner <jar> table2|planspace|sensitivity`.
    * Scale with BENCH_SCALE, pick Table 2 queries with BENCH_QUERIES,
    * set the output directory with BENCH_OUT.
    */
  def main(args: Array[String]): Unit = {
    val configs = args match {
      case Array("table2")      => table2()
      case Array("planspace")   => planSpace
      case Array("sensitivity") => sensitivity
      case _ => throw new IllegalArgumentException(
        "usage: spark-submit --class repro.bench.BenchRunner <jar> table2|planspace|sensitivity")
    }
    val name = args(0)
    val spark = SparkSession.builder()
      .appName(s"repro-$name")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(markdown(run(spark, name, configs)))
    finally spark.stop()
  }
}
