open Lint_fixtures

let () =
  ignore Fx_allowed.same;
  ignore Fx_bigarray.ba_read;
  ignore Fx_bigarray.arr_read;
  ignore Fx_chain.entry;
  ignore Fx_chain.stamp;
  ignore Fx_chain.entry2;
  ignore Fx_chain.sample;
  ignore Fx_chain_util.hidden_now;
  ignore Fx_compare.eq_name;
  ignore Fx_compare.order;
  ignore Fx_compare.close;
  ignore Fx_compare.is_some;
  ignore Fx_digest.fingerprint;
  ignore Fx_env.home;
  ignore Fx_env.first_arg;
  ignore Fx_io.pid;
  (* applications, not values: a value use would pass every optional
     parameter.  [passed]'s is forwarded, the next two go unset, and
     [staged]'s second is passed to its partial application. *)
  let forward ?gain () = Fx_knob.passed ?gain () in
  ignore (forward ~gain:4 ());
  ignore (Fx_knob.tested ());
  ignore (Fx_knob.unpassed ());
  let staged = Fx_knob.staged ~first:1 in
  ignore (staged ~second:2 ());
  ignore Fx_io.slurp;
  ignore Fx_random.roll;
  ignore Fx_random.stamp;
  ignore Fx_random.keys;
  ignore Fx_reach.called;
  (* builds one constructor; matching another does not build it *)
  (match Fx_reach.Built with Fx_reach.Unbuilt -> () | _ -> ());
  ignore [ Fx_doc.Left; Fx_doc.Right ];
  ignore [ Fx_wire.Alpha; Fx_wire.Beta; Fx_wire.Gamma; Fx_wire.Delta ];
  ignore [ Fx_wire.Strict; Fx_wire.Loose ];
  ignore Fx_tracer.spans;
  ignore Fx_tracer.start;
  ignore Fx_tracer.finish;
  ignore Fx_unsafe.cast;
  ignore Fx_unsafe.blob;
  ignore Fx_unsafe.decode;
  ignore Fx_wire.type_code;
  ignore Fx_wire.traced_code_offset;
  ignore Fx_wire.crc_code_offset;
  ignore Fx_wire.option_code;
  ignore Fx_wire.ctx_flag;
  ignore Fx_wire.query_magic;
  ignore Fx_wire.result_magic
