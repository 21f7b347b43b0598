val passed : ?gain:int -> unit -> int
val tested : ?trim:int -> unit -> int
val unpassed : ?spare:int -> unit -> int
val staged : ?first:int -> ?second:int -> unit -> int
