val called : unit -> int
val tested : unit -> int
val dead : unit -> int

type shape =
  | Built
  | Tested
  | Unbuilt
