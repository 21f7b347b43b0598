(* Built-in mathematical functions (§3.6.2 names the set after the hoc
   calculator of Kernighan & Pike, the thesis's cited parser source). *)

let table : (string * (float -> float)) list =
  [
    ("sin", Float.sin);
    ("cos", Float.cos);
    ("tan", Float.tan);
    ("atan", Float.atan);
    ("exp", Float.exp);
    ("log", Float.log);
    ("ln", Float.log);
    ("log10", Float.log10);
    ("sqrt", Float.sqrt);
    ("int", fun f -> Float.of_int (int_of_float f));
    ("abs", Float.abs);
  ]

let find name = List.assoc_opt name table

let is_builtin name = find name <> None
