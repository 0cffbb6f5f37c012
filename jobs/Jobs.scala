package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._
import repro.synth.CovidSynth

/** spark-submit entrypoints, one per evaluation table/figure.
  *
  *   spark-submit --class repro.jobs.CovidTablesJob target/scala-2.13/repro_2.13-0.1.0-SNAPSHOT.jar
  *
  * Each job prints the table rows the corresponding bench suite also
  * produces (the bench suites are the canonical timed runs).
  */
object Jobs {
  def session(name: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "16"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

/** Tables 1 and 2 + Figure 13: the COVID-19 case study. */
object CovidTablesJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("covid-tables")
    try CovidExp.printResults(CovidExp.runAll(spark))
    finally spark.stop()
  }
}

/** Figure 11: explanation accuracy vs Raw / Sensitivity / Support. */
object AccuracyFig11Job {
  def main(args: Array[String]): Unit = {
    val trials = args.headOption.map(_.toInt).getOrElse(20)
    val spark = Jobs.session("fig11")
    try AccuracyExp.printRows("Figure 11: accuracy comparison",
      AccuracyExp.runFig11(spark, trials, Seq(0.6, 0.8, 1.0)))
    finally spark.stop()
  }
}

/** Figure 12: complaint ablation (Reptile vs Outlier, multiple errors). */
object AblationFig12Job {
  def main(args: Array[String]): Unit = {
    val trials = args.headOption.map(_.toInt).getOrElse(20)
    val spark = Jobs.session("fig12")
    try AccuracyExp.printRows("Figure 12: complaint ablation",
      AccuracyExp.runFig12(spark, trials, Seq(0.6, 0.8, 1.0)))
    finally spark.stop()
  }
}

/** Figure 7: factorized matrix operations vs Lapack-style dense ops. */
object MatrixOpsFig7Job {
  def main(args: Array[String]): Unit = {
    val maxD = args.headOption.map(_.toInt).getOrElse(6)
    MatrixOpsExp.printRows("Figure 7: matrix operations", MatrixOpsExp.run(1 to maxD))
    MatrixOpsExp.printRows("Figure 15: per-cluster matrix operations", MatrixOpsExp.runClusterOps(1 to maxD))
  }
}

/** Figure 8: multi-query execution of decomposed aggregates on Spark. */
object MultiQueryFig8Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig8")
    try MultiQueryExp.printRows(MultiQueryExp.run(spark))
    finally spark.stop()
  }
}

/** Figure 9: drill-down optimization strategies. */
object DrilldownFig9Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig9")
    try DrilldownExp.printRows(DrilldownExp.run(spark))
    finally spark.stop()
  }
}

/** Figure 10: end-to-end runtime on Absentee-like and COMPAS-like data. */
object EndToEndFig10Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig10")
    try {
      EndToEndExp.printRows(EndToEndExp.run(spark, EndToEndExp.absenteeSetup))
      EndToEndExp.printRows(EndToEndExp.run(spark, EndToEndExp.compasSetup))
    } finally spark.stop()
  }
}

/** Figure 16: AIC model comparison on FIST-like and Vote-like data. */
object AicFig16Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig16")
    try AicExp.printRows(AicExp.run(spark))
    finally spark.stop()
  }
}

/** Single-issue debug runner: pass an issue id (e.g. 3572). */
object CovidIssueJob {
  def main(args: Array[String]): Unit = {
    val id = args.headOption.getOrElse("3572")
    val issue = CovidSynth.allIssues.find(_.id == id)
      .getOrElse(throw new IllegalArgumentException(s"unknown issue $id"))
    val spark = Jobs.session(s"covid-$id")
    try CovidExp.printResults(Seq(CovidExp.runIssue(spark, issue)))
    finally spark.stop()
  }
}
