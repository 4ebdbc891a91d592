package perfbench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

import repro.graph.GraphGen

/** A graph family, an expansion factor, and the number of untimed partition
  * calls that bring a fresh JVM close to steady state on it (README.md).
  * `gen` receives the workload seed; `defaultSeed` is the seed of the
  * dataset catalogue's graph from the same generator (`repro.bench.Datasets`).
  */
final case class Workload(name: String, lambda: Double, defaultSeed: Long, warmups: Int,
                          gen: (SparkSession, Long) => RDD[(Long, Long)])

object Workloads {
  val all: Seq[Workload] = Seq(
    // Skewed: RMAT scale 10, edge factor 16, a = 0.45. Each iteration expands
    // whole boundaries (lambda = 1): 5 to 6 heavy iterations in which hubs
    // fan sync messages out to whole grid rows and columns; RF above 8.
    Workload("rmat10-l1", 1.0, 12L, 1,
      (s, seed) => GraphGen.rmat(s, scale = 10, edgeFactor = 16, seed = seed, a = 0.45)),
    // Not skewed: a 36x36 road-like lattice (the calif-like generator).
    // Low degree, quotas that never bind, 12 light iterations, so fixed
    // per-iteration cost is most of the time; RF stays near sequential NE's.
    Workload("road36-l1", 1.0, 21L, 1,
      (s, seed) => GraphGen.roadLattice(s, 36, 36, seed = seed)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
