package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import repro.graph.GraphGen

/** Self-test of the benchmark's trace: on a small graph, the listener sees
  * every job of a partition call, attributes each to a phase by the call's
  * structure, and the phases plus driver time account for the call's wall
  * time. Run with `sbt test` from this directory.
  */
class AttributionSpec extends AnyFunSuite with BeforeAndAfterAll {
  private lazy val spark: SparkSession = Bench.session()
  private lazy val listener = {
    val l = new PhaseListener(spark.sparkContext)
    spark.sparkContext.addSparkListener(l)
    l
  }
  // the rmat10-l1 graph: large enough for the edge-balance check to hold
  private lazy val graph =
    Bench.load(GraphGen.rmat(spark, scale = 10, edgeFactor = 16, seed = 3, a = 0.45))._1
  private def cores = spark.sparkContext.defaultParallelism

  override def afterAll(): Unit = {
    spark.stop()
    super.afterAll()
  }

  test("a traced call passes the output checks and is attributed completely") {
    val call = Bench.partition(spark, listener, graph.rdd, Bench.config(1.0), "selftest-1", detail = true)
    val (_, failures) = Bench.check(call, graph)
    assert(failures.isEmpty)
    val ph = Phases.of(call.rec, cores).fold(why => fail(why), identity)
    val iters = call.result.iterations
    assert(ph.iterations == iters)
    assert(ph.jobs == 2 * iters + 2)
    // distribute: map + result stage; iteration: phase 1 + phase 2; rotate and emit: one stage
    assert(ph.stages == 2 + 3 * iters + 1)
    assert(ph.failedTasks == 0)
    assert(ph.syncRecords > 0 && ph.syncBytes > 0)

    val wallMs = call.seconds * 1e3
    val driverMs = wallMs - ph.jobWallMs
    val attributedMs = ph.distributeMs + ph.phase1WallMs + ph.phase2WallMs +
      ph.rotateMs + ph.emitMs + driverMs
    assert(driverMs >= 0, "jobs cannot cover more than the call")
    assert(ph.iterGapMs >= 0, "an iteration job cannot be shorter than its stages")
    assert(attributedMs <= wallMs + 1e-6)
    assert(attributedMs >= 0.9 * wallMs, s"only $attributedMs of $wallMs ms attributed")
  }

  test("an untraced call records its jobs and storage peak but no stages") {
    val call = Bench.partition(spark, listener, graph.rdd, Bench.config(1.0), "selftest-2", detail = false)
    call.result.assignments.unpersist(blocking = true)
    assert(call.rec.jobs.size == 2 * call.result.iterations + 2)
    assert(call.rec.jobs.forall(_.stages.isEmpty))
    assert(call.rec.peakStorageBytes > 0)
  }

  test("a record whose jobs do not follow the call's structure is refused") {
    val call = Bench.partition(spark, listener, graph.rdd, Bench.config(1.0), "selftest-3", detail = true)
    call.result.assignments.unpersist(blocking = true)
    val rotate = Phases.roles(call.rec).collectFirst { case (j, "rotate") => j }.get
    call.rec.jobs -= rotate
    assert(Phases.of(call.rec, cores).isLeft)
  }
}
