package repro.perfbench

/** Reference answers for the default seed, per workload: the dataset's
  * fingerprint (see [[Main.fingerprint]]) and, per query, |embeddings|
  * and, on acyclic queries, |AG|. Both workloads run at SF 0.01, so they
  * share one dataset.
  */
object Reference {
  final case class Row(emb: Long, ag: Option[Long])
  final case class Table(fingerprint: String, rows: Map[String, Row])

  private val Sf001Seed42 = "11975-0163d325"

  val tables: Map[String, Table] = Map(
    "snowflake" -> Table(Sf001Seed42, Map(
      "S1" -> Row(25144, Some(183)),
      "S2" -> Row(29610, Some(473)),
      "S3" -> Row(21426, Some(562)),
      "S4" -> Row(39874, Some(425)),
      "S5" -> Row(14174, Some(403)),
    )),
    "diamond" -> Table(Sf001Seed42, Map(
      "D6" -> Row(339, None),
      "D7" -> Row(1292, None),
      "D8" -> Row(481, None),
      "D9" -> Row(253, None),
    )),
  )
}
