package org.apache.spark.sql

import org.apache.spark.SparkContext
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd

/** The two Spark internals the traced run reads: the listener bus, which
  * it drains before reading what its listener recorded, and the query
  * execution that an SQL-execution end event carries, whose planning
  * tracker holds the Catalyst phase times.
  */
object TraceHooks {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Parsing + analysis + optimization + planning time, in ms. */
  def catalystMs(end: SparkListenerSQLExecutionEnd): Long =
    Option(end.qe).map(_.tracker.phases.values.map(_.durationMs).sum).getOrElse(0L)
}
