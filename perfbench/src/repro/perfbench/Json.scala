package repro.perfbench

/** A minimal JSON writer for the benchmark's output lines. */
object Json {
  def apply(v: Any): String = v match {
    case null                => "null"
    case s: String           => quote(s)
    case b: Boolean          => b.toString
    case d: Double           =>
      require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
      d.toString
    case i: Int              => i.toString
    case l: Long             => l.toString
    case o: Option[_]        => o.fold("null")(apply)
    case m: scala.collection.Map[_, _] =>
      m.iterator.map { case (k, x) => s"${quote(k.toString)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]     => xs.iterator.map(apply).mkString("[", ", ", "]")
    case other               => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'            => b ++= "\\\""
      case '\\'           => b ++= "\\\\"
      case '\n'           => b ++= "\\n"
      case c if c < ' '   => b ++= f"\\u${c.toInt}%04x"
      case c              => b += c
    }
    (b += '"').toString
  }
}
