package perfbench

import java.io.File

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.core.{DistributedNE, SequentialNE}
import repro.graph.LocalMetrics
import repro.theory.Bounds

import scala.collection.mutable

/** The graph under test: the cached edge RDD and its sorted driver-side copy. */
final case class Graph(rdd: RDD[(Long, Long)], edges: Array[(Long, Long)]) {
  val numVertices: Long = LocalMetrics.numVertices(edges)
}

/** One `DistributedNE.partition` call as the benchmark saw it. */
final case class Call(seconds: Double, startMs: Double, endMs: Double,
                      result: DistributedNE.Result, rec: CallRec)

final case class Quality(rf: Double, eb: Double, vb: Double)

/** The pieces a benchmark run is made of, shared with the self-test. */
object Bench {
  val NumPartitions = 64

  /** Largest edge balance accepted, as in `DistributedNESpec`. */
  val MaxEdgeBalance = 1.3

  def session(): SparkSession = {
    val spark = SparkSession.builder()
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }

  def config(lambda: Double): DistributedNE.Config =
    DistributedNE.Config(NumPartitions, alpha = 1.1, lambda = lambda, seed = 42L)

  /** Caches and counts the (lazily generated) `rdd`, then collects and sorts
    * it on the driver. Also returns the seconds spent generating, caching and
    * counting.
    */
  def load(rdd: RDD[(Long, Long)]): (Graph, Double) = {
    val t0 = System.nanoTime()
    val cached = rdd.persist(StorageLevel.MEMORY_ONLY)
    cached.count()
    val genSeconds = (System.nanoTime() - t0) / 1e9
    val edges = cached.collect()
    scala.util.Sorting.quickSort(edges)(Ordering.Tuple2[Long, Long])
    (Graph(cached, edges), genSeconds)
  }

  /** Runs one partition call with its jobs tagged by the job group `id`. */
  def partition(spark: SparkSession, listener: PhaseListener, edges: RDD[(Long, Long)],
                cfg: DistributedNE.Config, id: String, detail: Boolean): Call = {
    val sc = spark.sparkContext
    sc.setJobGroup(id, s"perfbench $id")
    listener.begin(id, detail)
    try {
      val t0 = Clock.nowMs
      val n0 = System.nanoTime()
      val result = DistributedNE.partition(spark, edges, cfg)
      val seconds = (System.nanoTime() - n0) / 1e9
      Call(seconds, t0, Clock.nowMs, result, listener.end())
    } finally sc.clearJobGroup()
  }

  /** Checks one call's output against the input graph. Returns the quality
    * metrics and a description of every check that failed.
    */
  def check(call: Call, g: Graph): (Quality, Seq[String]) = {
    val r = call.result
    val assign = r.assignments.collect()
    scala.util.Sorting.quickSort(assign)(
      Ordering.by[(Long, Long, Int), (Long, Long)](t => (t._1, t._2)))
    val e = g.edges
    val q = Quality(LocalMetrics.replicationFactor(assign),
      LocalMetrics.edgeBalance(assign), LocalMetrics.vertexBalance(assign))
    val rfBound = Bounds.theorem1(e.length, g.numVertices, NumPartitions)
    val failures = Seq(
      (assign.length == e.length &&
        assign.indices.forall(i => assign(i)._1 == e(i)._1 && assign(i)._2 == e(i)._2)) ->
        s"the assignment does not cover the ${e.length} input edges exactly once",
      assign.forall(t => t._3 >= 0 && t._3 < NumPartitions) ->
        s"a part id is outside [0, $NumPartitions)",
      (r.partitionSizes.sum == r.numEdges && r.numEdges == e.length) ->
        s"partition sizes sum to ${r.partitionSizes.sum}, numEdges is ${r.numEdges}, |E| is ${e.length}",
      (q.eb <= MaxEdgeBalance) -> s"edge balance ${q.eb} exceeds $MaxEdgeBalance",
      (q.rf <= rfBound) -> s"replication factor ${q.rf} exceeds the Theorem-1 bound $rfBound",
    ).collect { case (false, why) => why }
    (q, failures)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}

/** Benchmark entry point; see perfbench/README.md.
  *
  * {{{
  * Main --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--trace-out <file>]
  * }}}
  * The last line of standard output is the JSON result; the exit code is 0
  * only when every output check passed.
  */
object Main {
  /** Graph set-ups per run; `setup_s` and `graph.gen_s` take their median. */
  val PrepReps = 3
  /** Timed partition calls per run at least, however short `--seconds` is.
    * A traced run orders its calls untraced, traced, traced, untraced, so
    * that a JVM still warming up favours neither side of the overhead.
    */
  def minOps(traced: Boolean): Int = if (traced) 4 else 3
  def tracedCall(traced: Boolean, k: Int): Boolean = traced && (k % 4 == 1 || k % 4 == 2)
  /** Sequential NE reference runs per run; `core.ne.partition_s` is their median. */
  val NeReps = 3

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val wl = Workloads.byName(opts.getOrElse("workload", ""))
    val seed = opts.get("seed").fold(wl.defaultSeed)(_.toLong)
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val traced = opts.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val ok = run(wl, seed, seconds, traced, opts.get("trace-out").map(new File(_)))
    sys.exit(if (ok) 0 else 1)
  }

  private def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")

  /** One benchmark run; prints the metrics and returns whether it was correct. */
  def run(wl: Workload, seed: Long, seconds: Double, traced: Boolean,
          traceOut: Option[File]): Boolean = {
    val spans = new Spans(s"${wl.name}-seed$seed-pid${ProcessHandle.current.pid}")
    val root = spans.trace
    val runStart = Clock.nowMs
    val cfg = Bench.config(wl.lambda)

    // ---- setup: session, graph (several times), warm-up partitions ----
    val setupStart = Clock.nowMs
    val s0 = System.nanoTime()
    val spark = Bench.session()
    try {
      val sc = spark.sparkContext
      val cores = sc.defaultParallelism
      val listener = new PhaseListener(sc)
      sc.addSparkListener(listener)
      val sessionS = (System.nanoTime() - s0) / 1e9

      val preps = (1 to PrepReps).map { _ =>
        val g0 = System.nanoTime()
        val (graph, genS) = Bench.load(wl.gen(spark, seed))
        (graph, genS, (System.nanoTime() - g0) / 1e9)
      }
      preps.init.foreach(_._1.rdd.unpersist(blocking = true))
      val graph = preps.last._1
      val genS = Bench.median(preps.map(_._2))
      val prepS = Bench.median(preps.map(_._3))

      val w0 = System.nanoTime()
      val warmups = (1 to wl.warmups).map { i =>
        val c = Bench.partition(spark, listener, graph.rdd, cfg, s"$root/warmup$i", detail = false)
        c.result.assignments.unpersist(blocking = true)
        c.seconds
      }
      val warmS = (System.nanoTime() - w0) / 1e9
      val setupS = sessionS + prepS + warmS
      spans.add(Span(root, s"$root/setup", root, "setup", setupStart, Clock.nowMs, Seq(
        "session_s" -> sessionS, "prep_s_median" -> prepS, "gen_s_median" -> genS,
        "warmup_s" -> warmS, "warmups" -> warmups.size, "edges" -> graph.edges.length)))
      log(f"${wl.name} seed $seed: ${graph.edges.length} edges, ${graph.numVertices} vertices; " +
        f"session $sessionS%.2f s, prep $prepS%.2f s, warm-up ${warmups.map(s => f"$s%.2f").mkString(" ")} s")

      // ---- timed partition calls ----
      final case class Op(call: Call, quality: Quality, phases: Option[Phases])
      val ops = mutable.ArrayBuffer.empty[Op]
      var attempted = 0
      val deadline = System.nanoTime() + (seconds * 1e9).toLong
      while (attempted < minOps(traced) || System.nanoTime() < deadline) {
        val id = s"$root/op$attempted"
        val detail = tracedCall(traced, attempted)
        attempted += 1
        try {
          val call = Bench.partition(spark, listener, graph.rdd, cfg, id, detail)
          val (quality, failures) = spans.time(s"$id/check", root, "check")(Bench.check(call, graph))
          call.result.assignments.unpersist(blocking = true)
          val phases = if (detail) Some(Phases.of(call.rec, cores)) else None
          val attribution = phases.toSeq.flatMap {
            case Left(why) => Seq(s"attribution failed: $why")
            case Right(ph) if ph.iterations != call.result.iterations =>
              Seq(s"attributed ${ph.iterations} iterations, partition ran ${call.result.iterations}")
            case Right(_) => Nil
          }
          spans.add(Span(root, id, root, "partition", call.startMs, call.endMs, Seq(
            "traced" -> detail, "seconds" -> call.seconds,
            "iterations" -> call.result.iterations, "jobs" -> call.rec.jobs.size)))
          if (detail) spans.addCall(id, call.rec)
          log(f"op $attempted: ${call.seconds}%.3f s, ${call.result.iterations} iterations, " +
            f"traced=$detail, rf ${quality.rf}%.4f")
          if (failures.isEmpty && attribution.isEmpty)
            ops += Op(call, quality, phases.flatMap(_.toOption))
          else (failures ++ attribution).foreach(f => log(s"op $attempted FAILED: $f"))
        } catch {
          case e: Exception => log(s"op $attempted FAILED: $e")
        }
      }

      // ---- single-threaded reference on the same sorted edges ----
      val (neSeconds, neRf) = spans.time(s"$root/reference", root, "reference") {
        val runs = (1 to NeReps).map { _ =>
          val n0 = System.nanoTime()
          val parts = SequentialNE.partition(graph.edges, SequentialNE.Config(Bench.NumPartitions))
          ((System.nanoTime() - n0) / 1e9, parts)
        }
        val parts = runs.last._2
        val triples = graph.edges.indices.map(i => (graph.edges(i)._1, graph.edges(i)._2, parts(i))).toArray
        (Bench.median(runs.map(_._1)), LocalMetrics.replicationFactor(triples))
      }

      val failed = attempted - ops.size
      val untraced = ops.filter(_.phases.isEmpty)
      val tracedOps = ops.flatMap(o => o.phases.map(o -> _))
      def med(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else Bench.median(xs)
      def medOp(f: Op => Double): Double = med(untraced.map(f).toSeq)
      def mean(xs: Iterable[Double]): Double = xs.sum / xs.size
      def medPh(f: (Op, Phases) => Double): Double = med(tracedOps.map(f.tupled).toSeq)
      def driverS(o: Op, p: Phases) = o.call.seconds - p.jobWallMs / 1e3

      val metrics: Seq[(String, Double, String)] =
        if (!traced) Seq(
          ("partition_s", if (untraced.isEmpty) Double.NaN else untraced.map(_.call.seconds).min, "s"),
          ("setup_s", setupS, "s"),
          ("rf", medOp(_.quality.rf), "ratio"),
          ("eb", medOp(_.quality.eb), "ratio"),
          ("vb", medOp(_.quality.vb), "ratio"),
          ("cache_peak_mb", medOp(_.call.rec.peakStorageBytes / 1e6), "MB"))
        else Seq(
          ("graph.edges", graph.edges.length.toDouble, "count"),
          ("graph.vertices", graph.numVertices.toDouble, "count"),
          ("graph.gen_s", genS, "s"),
          ("core.dne.iterations", medPh((o, _) => o.call.result.iterations), "count"),
          ("core.dne.ms_per_iter", medPh((o, _) => o.call.seconds * 1e3 / o.call.result.iterations), "ms"),
          ("core.dne.driver_s", medPh(driverS), "s"),
          ("core.dne.distribute_s", medPh((_, p) => p.distributeMs / 1e3), "s"),
          ("core.dne.emit_s", medPh((_, p) => p.emitMs / 1e3), "s"),
          ("core.ne.partition_s", neSeconds, "s"),
          ("core.ne.rf", neRf, "ratio"),
          ("spark.jobs", medPh((_, p) => p.jobs), "count"),
          ("spark.stages", medPh((_, p) => p.stages), "count"),
          ("spark.tasks", medPh((_, p) => p.tasks), "count"),
          ("spark.failed_tasks", medPh((_, p) => p.failedTasks), "count"),
          ("spark.idle_core_s", medPh((_, p) => p.idleCoreMs / 1e3), "s"),
          ("spark.phase1.wall_s", medPh((_, p) => p.phase1WallMs / 1e3), "s"),
          ("spark.phase1.run_s", medPh((_, p) => p.phase1RunMs / 1e3), "s"),
          ("spark.phase1.cpu_s", medPh((_, p) => p.phase1CpuNs / 1e9), "s"),
          ("spark.phase2.wall_s", medPh((_, p) => p.phase2WallMs / 1e3), "s"),
          ("spark.phase2.run_s", medPh((_, p) => p.phase2RunMs / 1e3), "s"),
          ("spark.phase2.cpu_s", medPh((_, p) => p.phase2CpuNs / 1e9), "s"),
          ("spark.rotate.wall_s", medPh((_, p) => p.rotateMs / 1e3), "s"),
          ("spark.iter_gap_s", medPh((_, p) => p.iterGapMs / 1e3), "s"),
          ("spark.sync.records", medPh((_, p) => p.syncRecords.toDouble), "count"),
          ("spark.sync.bytes", medPh((_, p) => p.syncBytes.toDouble), "bytes"),
          ("spark.gc_s", medPh((_, p) => p.gcMs / 1e3), "s"),
          // phases + driver_s cover the call except the hand-over inside iteration jobs
          ("trace.attributed_pct", medPh((o, p) => 100 * (1 - p.iterGapMs / (o.call.seconds * 1e3))), "%"),
          ("trace.overhead_pct",
            100 * (mean(tracedOps.map(_._1.call.seconds)) / mean(untraced.map(_.call.seconds)) - 1), "%"))

      val correct = failed == 0 && metrics.forall(m => !m._2.isNaN)
      spans.add(Span(root, root, "", "run", runStart, Clock.nowMs, Seq(
        "workload" -> wl.name, "seed" -> seed, "attempted" -> attempted, "failed" -> failed)))
      if (traced) traceOut.foreach(spans.writeJsonLines)

      metrics.foreach { case (name, v, unit) => println(f"$name%-24s $v%18.6f $unit") }
      println(Json.obj(Seq(
        "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
        "metrics" -> metrics.map { case (name, v, unit) =>
          name -> Seq("value" -> (if (v.isNaN) null else v), "unit" -> unit)
        })))
      correct
    } finally spark.stop()
  }
}
