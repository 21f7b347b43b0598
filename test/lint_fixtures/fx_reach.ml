let called () = 1
let tested () = 2
let dead () = 3

type shape = Built | Tested | Unbuilt
