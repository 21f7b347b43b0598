type t = Left | Right

type u = t
