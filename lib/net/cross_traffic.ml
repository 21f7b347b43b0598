(* Background (cross) traffic generator.

   Cross traffic is modelled fluidly: a generator periodically re-draws a
   channel's [cross_load], as a two-state on/off (Markov) load, for WAN
   paths where the thesis's pipechar traces show "bad fluctuation". *)

let clamp_load (chan : Link.t) load =
  Link.set_cross_load chan
    (Float.max 0.0 (Float.min (chan.Link.conf.capacity *. 0.98) load))

let bursty ~engine ~rng ~chan ~on_load ~off_load ?(p_on = 0.3) () =
  ignore
    (Smart_sim.Engine.every engine ~period:0.2
       ~start:(Smart_sim.Engine.now engine) (fun _now ->
         let on = Smart_util.Prng.float rng ~bound:1.0 < p_on in
         clamp_load chan (if on then on_load else off_load)));
  clamp_load chan off_load
