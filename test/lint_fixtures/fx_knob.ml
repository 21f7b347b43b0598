let passed ?(gain = 1) () = gain
let tested ?(trim = 2) () = trim
let unpassed ?(spare = 3) () = spare
let staged ?(first = 4) ?(second = 5) () = first + second
