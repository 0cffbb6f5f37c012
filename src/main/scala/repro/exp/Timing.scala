package repro.exp

/** Wall-clock helpers and fixed-width table printing shared by the
  * experiment runners (one runner per evaluation table/figure).
  */
object Timing {
  def ms[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e6)
  }

  private val MedianRuns = 5

  /** The median wall time of 5 runs of `f`, each after a GC, and the last
    * run's result. Only one result is held at a time, so `f` may build
    * something as large as the heap allows once.
    */
  def medianMs[A](f: => A): (A, Double) = {
    val times = new Array[Double](MedianRuns)
    var last: Option[A] = None
    for (k <- times.indices) {
      last = None
      System.gc()
      val (a, t) = ms(f)
      last = Some(a); times(k) = t
    }
    (last.get, times.sorted.apply(MedianRuns / 2))
  }

  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]): String = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    println(s"\n== $title ==")
    println(fmt(header))
    println(widths.map("-" * _).mkString("  "))
    rows.foreach(r => println(fmt(r)))
  }

  def f1(v: Double): String = f"$v%.1f"
  def f2(v: Double): String = f"$v%.2f"
  def pct(v: Double): String = f"${100 * v}%.1f%%"
}
