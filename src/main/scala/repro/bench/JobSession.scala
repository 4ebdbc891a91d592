package repro.bench

import org.apache.spark.sql.SparkSession

/** The one SparkSession factory: the `jobs/` entrypoints (spark-submit or
  * `sbt runMain`) and the test suites build their session here.
  * `SPARK_MASTER` picks the deployment (default `local[*]`).
  */
object JobSession {
  def create(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}
