package org.apache.spark

/** Waits until every listener has processed every event posted so far.
  *
  * Spark posts a job's end event before `runJob` returns, so after a call
  * returns, draining the bus makes the listener's view of that call
  * complete. The bus is `private[spark]`, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext, timeoutMillis: Long = 60000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMillis)
}
