(* Tests for the wire protocols: ASCII probe reports, binary status
   records (both byte orders, incl. the §3.5.1 endian-mismatch hazard),
   [type,size,data] framing with incremental decoding, and the wizard
   request/reply messages. *)

module P = Smart_proto

let sample_report =
  {
    P.Report.host = "helene";
    ip = "192.168.2.3";
    load1 = 0.42;
    load5 = 0.21;
    load15 = 0.08;
    cpu_user = 0.31;
    cpu_nice = 0.0;
    cpu_system = 0.04;
    cpu_free = 0.65;
    bogomips = 3394.76;
    mem_total = 256.0;
    mem_used = 120.5;
    mem_free = 135.5;
    mem_buffers = 18.0;
    mem_cached = 80.25;
    disk_rreq = 12.0;
    disk_rblocks = 96.0;
    disk_wreq = 5.5;
    disk_wblocks = 44.0;
    net_rbytes = 20480.0;
    net_rpackets = 22.0;
    net_tbytes = 10240.0;
    net_tpackets = 11.0;
  }

(* ------------------------------------------------------------------ *)
(* Report                                                               *)
(* ------------------------------------------------------------------ *)

let test_report_roundtrip () =
  let s = P.Report.to_string sample_report in
  match P.Report.decode s with
  | Ok (r, _) ->
    Alcotest.(check string) "host" "helene" r.P.Report.host;
    Alcotest.(check string) "ip" "192.168.2.3" r.P.Report.ip;
    Alcotest.(check (float 1e-6)) "load1" 0.42 r.P.Report.load1;
    Alcotest.(check (float 1e-6)) "bogomips" 3394.76 r.P.Report.bogomips;
    Alcotest.(check (float 1e-6)) "cached" 80.25 r.P.Report.mem_cached;
    Alcotest.(check (float 1e-6)) "tpackets" 11.0 r.P.Report.net_tpackets
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_report_size_budget () =
  (* §3.2.1: the report stays a small datagram (thesis: < 200 bytes) *)
  let s = P.Report.to_string sample_report in
  Alcotest.(check bool) "under 256 bytes" true (String.length s <= 256)

let test_report_bad_inputs () =
  let is_err s =
    match P.Report.decode s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "empty" true (is_err "");
  Alcotest.(check bool) "wrong tag" true (is_err "XX|a|b|1");
  Alcotest.(check bool) "short" true (is_err "SR1|a|b|1|2");
  Alcotest.(check bool) "non-numeric" true
    (is_err
       (String.concat "|"
          ("SR1" :: "h" :: "i" :: List.init 21 (fun _ -> "oops"))))

let test_report_variable_binding () =
  let v name = Smart_oracle.Report_binding.variable sample_report name in
  Alcotest.(check (option (float 1e-6))) "load1" (Some 0.42)
    (v "host_system_load1");
  Alcotest.(check (option (float 1e-6))) "cpu_free" (Some 0.65)
    (v "host_cpu_free");
  Alcotest.(check (option (float 1e-6))) "allreq = r+w" (Some 17.5)
    (v "host_disk_allreq");
  Alcotest.(check (option (float 1e-6))) "tbytesps" (Some 10240.0)
    (v "host_network_tbytesps");
  Alcotest.(check (option (float 1e-6))) "unknown" None (v "host_cpu_mhz");
  (* every server-side variable except the monitor ones binds *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " binds") true (v name <> None))
    Smart_lang.Vars.server_side

(* ------------------------------------------------------------------ *)
(* Binary records                                                       *)
(* ------------------------------------------------------------------ *)

let sys_record = { P.Records.report = sample_report; updated_at = 123.456 }

let test_sys_record_roundtrip order =
  let s = P.Records.encode_sys order sys_record in
  Alcotest.(check int) "declared size" P.Records.sys_record_size
    (String.length s);
  let r = P.Records.decode_wire (P.Records.sys_wire order s ~pos:0) in
  Alcotest.(check string) "host" "helene" r.P.Records.report.P.Report.host;
  Alcotest.(check (float 1e-9)) "timestamp" 123.456 r.P.Records.updated_at;
  Alcotest.(check (float 1e-9)) "bogomips" 3394.76
    r.P.Records.report.P.Report.bogomips

let test_sys_record_le () = test_sys_record_roundtrip P.Endian.Little
let test_sys_record_be () = test_sys_record_roundtrip P.Endian.Big

let test_sys_record_endian_mismatch () =
  (* §3.5.1: decoding with the wrong byte order yields garbage *)
  let s = P.Records.encode_sys P.Endian.Little sys_record in
  let r = P.Records.decode_wire (P.Records.sys_wire P.Endian.Big s ~pos:0) in
  Alcotest.(check bool) "values scrambled" true
    (Float.abs (r.P.Records.report.P.Report.bogomips -. 3394.76) > 1.0
    || Float.is_nan r.P.Records.report.P.Report.bogomips)

let test_sys_record_truncated () =
  let s = P.Records.encode_sys P.Endian.Little sys_record in
  let refused name data ~pos =
    Alcotest.check_raises name (Invalid_argument "Records.sys_wire")
      (fun () -> ignore (P.Records.sys_wire P.Endian.Little data ~pos))
  in
  refused "cut short" (String.sub s 0 10) ~pos:0;
  refused "runs past the end" s ~pos:1;
  refused "negative position" s ~pos:(-1)

let test_sys_record_concatenation () =
  let s =
    P.Records.encode_sys P.Endian.Little sys_record
    ^ P.Records.encode_sys P.Endian.Little
        {
          sys_record with
          P.Records.report = { sample_report with P.Report.host = "phoebe" };
        }
  in
  let r =
    P.Records.decode_wire
      (P.Records.sys_wire P.Endian.Little s ~pos:P.Records.sys_record_size)
  in
  Alcotest.(check string) "second record" "phoebe"
    r.P.Records.report.P.Report.host

let net_record =
  {
    P.Records.monitor = "netmon-1";
    entries =
      [
        { P.Records.peer = "netmon-2"; delay = 0.004; bandwidth = 5.5e6;
          measured_at = 10.0 };
        { P.Records.peer = "netmon-3"; delay = 0.011; bandwidth = 2.1e6;
          measured_at = 11.0 };
      ];
  }

let test_net_record_roundtrip () =
  List.iter
    (fun order ->
      let s = P.Records.encode_net order net_record in
      match P.Records.decode_net order s with
      | Ok r ->
        Alcotest.(check string) "monitor" "netmon-1" r.P.Records.monitor;
        Alcotest.(check int) "entries" 2 (List.length r.P.Records.entries);
        let e2 = List.nth r.P.Records.entries 1 in
        Alcotest.(check string) "peer" "netmon-3" e2.P.Records.peer;
        Alcotest.(check (float 1e-9)) "delay" 0.011 e2.P.Records.delay
      | Error e -> Alcotest.failf "decode failed: %s" e)
    [ P.Endian.Little; P.Endian.Big ]

let test_net_record_empty () =
  let s =
    P.Records.encode_net P.Endian.Little
      { P.Records.monitor = "m"; entries = [] }
  in
  match P.Records.decode_net P.Endian.Little s with
  | Ok r -> Alcotest.(check int) "no entries" 0 (List.length r.P.Records.entries)
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_sec_record_roundtrip () =
  let record =
    {
      P.Records.entries =
        [
          { P.Records.host = "alpha"; level = 5 };
          { P.Records.host = "beta"; level = 0 };
        ];
    }
  in
  let s = P.Records.encode_sec P.Endian.Little record in
  match P.Records.decode_sec P.Endian.Little s with
  | Ok r ->
    Alcotest.(check int) "entries" 2 (List.length r.P.Records.entries);
    Alcotest.(check int) "level" 5
      (List.hd r.P.Records.entries).P.Records.level
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_security_log_parsing () =
  let log = "# comment\nalpha 5\n\nbeta 3   # trailing comment\n" in
  match P.Records.parse_security_log log with
  | Ok r ->
    Alcotest.(check int) "two entries" 2 (List.length r.P.Records.entries);
    Alcotest.(check int) "beta level" 3
      (List.nth r.P.Records.entries 1).P.Records.level
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_security_log_bad () =
  match P.Records.parse_security_log "alpha notanumber\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad level must not parse"

(* ------------------------------------------------------------------ *)
(* Frames                                                               *)
(* ------------------------------------------------------------------ *)

(* Every frame one fresh decoder finds in [wire]. *)
let decode_all order wire =
  let dec = P.Frame.decoder order in
  P.Frame.feed dec wire;
  P.Frame.frames dec

let frames_eq expected actual =
  List.length expected = List.length actual
  && List.for_all2
       (fun (a : P.Frame.frame) (b : P.Frame.frame) ->
         a.P.Frame.payload_type = b.P.Frame.payload_type
         && String.equal a.P.Frame.data b.P.Frame.data)
       expected actual

let test_frame_roundtrip () =
  let fs =
    [
      { P.Frame.payload_type = P.Frame.Sys_db; data = "sysdata"; trace = Smart_util.Tracelog.root };
      { P.Frame.payload_type = P.Frame.Net_db; data = ""; trace = Smart_util.Tracelog.root };
      { P.Frame.payload_type = P.Frame.Sec_db; data = String.make 1000 'x'; trace = Smart_util.Tracelog.root };
    ]
  in
  let wire = String.concat "" (List.map (P.Frame.encode P.Endian.Little) fs) in
  let dec = P.Frame.decoder P.Endian.Little in
  P.Frame.feed dec wire;
  Alcotest.(check bool) "all frames" true (frames_eq fs (P.Frame.frames dec));
  Alcotest.(check int) "nothing skipped" 0 (P.Frame.skipped_bytes dec)

let test_frame_incremental () =
  (* feed the stream one byte at a time: TCP segmentation must not
     matter *)
  let fs =
    [
      { P.Frame.payload_type = P.Frame.Sys_db; data = "hello"; trace = Smart_util.Tracelog.root };
      { P.Frame.payload_type = P.Frame.Sec_db; data = "world!"; trace = Smart_util.Tracelog.root };
    ]
  in
  let wire = String.concat "" (List.map (P.Frame.encode P.Endian.Little) fs) in
  let dec = P.Frame.decoder P.Endian.Little in
  let got = ref [] in
  String.iter
    (fun c ->
      P.Frame.feed dec (String.make 1 c);
      got := !got @ P.Frame.frames dec)
    wire;
  Alcotest.(check bool) "reassembled" true (frames_eq fs !got)

(* A frame split into TCP-segment-sized pieces costs copies linear in
   its size: a 2,000-server system snapshot (464,000 bytes) fed in
   1,448-byte pieces, each followed by a [frames] call as the
   receiver makes, allocates a small multiple of the frame, not a copy
   of the pending bytes per piece.  The pieces are promoted before the
   count starts, so their promotion is not charged to the decoder. *)
let test_frame_split_linear () =
  let data =
    String.init (2000 * P.Records.sys_record_size) (fun i -> Char.chr (i land 255))
  in
  let f =
    { P.Frame.payload_type = P.Frame.Sys_db; data; trace = Smart_util.Tracelog.root }
  in
  let wire = P.Frame.encode P.Endian.Little f in
  let n = String.length wire and mss = 1448 in
  let pieces =
    List.init ((n + mss - 1) / mss) (fun i ->
        String.sub wire (i * mss) (min mss (n - (i * mss))))
  in
  let dec = P.Frame.decoder P.Endian.Little in
  let got = ref [] in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  List.iter
    (fun piece ->
      P.Frame.feed dec piece;
      got := List.rev_append (P.Frame.frames dec) !got)
    pieces;
  let ratio = (Gc.allocated_bytes () -. before) /. float_of_int n in
  Alcotest.(check bool) "reassembled" true (frames_eq [ f ] !got);
  if ratio > 4.0 then
    Alcotest.failf "a %d-byte frame in %d-byte pieces allocated %.1fx its size"
      n mss ratio

let test_frame_unknown_type_resyncs () =
  (* garbage bytes before a valid frame: the decoder skips past them and
     still delivers the frame, recording one corruption episode *)
  let dec = P.Frame.decoder P.Endian.Little in
  let b = Bytes.make 8 '\000' in
  Bytes.set_int32_le b 0 99l;
  P.Frame.feed dec (Bytes.to_string b);
  Alcotest.(check (list unit)) "no frame from garbage" []
    (List.map ignore (P.Frame.frames dec));
  let f =
    { P.Frame.payload_type = P.Frame.Sys_db; data = "after"; trace = Smart_util.Tracelog.root }
  in
  P.Frame.feed dec (P.Frame.encode P.Endian.Little f);
  Alcotest.(check bool) "frame after garbage decodes" true
    (frames_eq [ f ] (P.Frame.frames dec));
  Alcotest.(check int) "one resync episode" 1 (P.Frame.resyncs dec);
  Alcotest.(check int) "garbage skipped" 8 (P.Frame.skipped_bytes dec)

let test_frame_oversized_resyncs () =
  let dec = P.Frame.decoder P.Endian.Little in
  let b = Bytes.make 8 '\000' in
  Bytes.set_int32_le b 0 1l;
  (* one byte over the 16 MB cap on a payload *)
  Bytes.set_int32_le b 4 (Int32.of_int ((16 * 1024 * 1024) + 1));
  P.Frame.feed dec (Bytes.to_string b);
  Alcotest.(check int) "no frame from oversized header" 0
    (List.length (P.Frame.frames dec));
  Alcotest.(check bool) "skipping began" true (P.Frame.skipped_bytes dec > 0)

let test_frame_truncated_waits () =
  (* a short size prefix is not corruption: the decoder waits for the
     rest instead of raising or skipping *)
  let f =
    { P.Frame.payload_type = P.Frame.Net_db; data = "payload"; trace = Smart_util.Tracelog.root }
  in
  let wire = P.Frame.encode P.Endian.Big f in
  let dec = P.Frame.decoder P.Endian.Big in
  P.Frame.feed dec (String.sub wire 0 6);
  Alcotest.(check int) "nothing yet" 0 (List.length (P.Frame.frames dec));
  Alcotest.(check int) "no bytes skipped" 0 (P.Frame.skipped_bytes dec);
  P.Frame.feed dec (String.sub wire 6 (String.length wire - 6));
  Alcotest.(check bool) "completes" true (frames_eq [ f ] (P.Frame.frames dec))

let test_frame_decode_one_truncated () =
  (* a truncated prefix at every cut point waits for the rest: no frame,
     nothing skipped, and the rest completes it *)
  let f =
    { P.Frame.payload_type = P.Frame.Sys_db; data = "abcdef"; trace = Smart_util.Tracelog.root }
  in
  let wire = P.Frame.encode ~crc:true P.Endian.Little f in
  for cut = 0 to String.length wire - 1 do
    let dec = P.Frame.decoder P.Endian.Little in
    P.Frame.feed dec (String.sub wire 0 cut);
    if P.Frame.frames dec <> [] then
      Alcotest.failf "cut %d: truncated input decoded" cut;
    if P.Frame.skipped_bytes dec > 0 then
      Alcotest.failf "cut %d: truncated input taken for corruption" cut;
    P.Frame.feed dec (String.sub wire cut (String.length wire - cut));
    if not (frames_eq [ f ] (P.Frame.frames dec)) then
      Alcotest.failf "cut %d: the rest did not complete the frame" cut
  done

let test_frame_crc_detects_flip () =
  (* CRC trailer: any single-byte flip is detected, and the decoder
     resyncs onto the next clean frame *)
  let f data =
    { P.Frame.payload_type = P.Frame.Sec_db; data; trace = Smart_util.Tracelog.root }
  in
  let first = P.Frame.encode ~crc:true P.Endian.Little (f "corrupt-me") in
  let second = f "survivor" in
  let flipped = Bytes.of_string first in
  Bytes.set flipped 9 (Char.chr (Char.code (Bytes.get flipped 9) lxor 0x5A));
  (* the flip is caught, not delivered as a silent bad payload *)
  Alcotest.(check int) "flipped frame rejected" 0
    (List.length (decode_all P.Endian.Little (Bytes.to_string flipped)));
  let dec = P.Frame.decoder P.Endian.Little in
  P.Frame.feed dec (Bytes.to_string flipped);
  P.Frame.feed dec (P.Frame.encode ~crc:true P.Endian.Little second);
  Alcotest.(check bool) "only the clean frame survives" true
    (frames_eq [ second ] (P.Frame.frames dec));
  Alcotest.(check int) "one resync" 1 (P.Frame.resyncs dec);
  Alcotest.(check bool) "damage metered" true (P.Frame.skipped_bytes dec > 0)

let test_frame_crc_roundtrip_plain_compat () =
  (* a CRC'd stream decodes, and a plain frame still encodes to the
     legacy bytes (no trailer, no flags) *)
  let f =
    { P.Frame.payload_type = P.Frame.Sys_db; data = "x"; trace = Smart_util.Tracelog.root }
  in
  let plain = P.Frame.encode P.Endian.Little f in
  let crcd = P.Frame.encode ~crc:true P.Endian.Little f in
  (* an 8-byte header, and a 4-byte CRC trailer *)
  Alcotest.(check int) "plain has no trailer" (8 + 1) (String.length plain);
  Alcotest.(check int) "crc adds exactly the trailer"
    (String.length plain + 4)
    (String.length crcd);
  let dec = P.Frame.decoder P.Endian.Little in
  P.Frame.feed dec (plain ^ crcd);
  Alcotest.(check bool) "both decode" true
    (frames_eq [ f; f ] (P.Frame.frames dec))

let prop_frame_resync_recovers =
  QCheck.Test.make ~name:"decoder resyncs after arbitrary garbage" ~count:200
    QCheck.(
      pair
        (string_gen_of_size Gen.(int_range 1 40) Gen.char)
        (string_gen_of_size Gen.(int_range 0 50) Gen.printable))
    (fun (garbage, payload) ->
      (* strip NULs so no garbage offset can fake a valid (small) type
         code and stall the decoder waiting for a phantom payload *)
      let garbage =
        String.map (fun c -> if Char.equal c '\000' then '\001' else c) garbage
      in
      let f =
        { P.Frame.payload_type = P.Frame.Sys_db; data = payload; trace = Smart_util.Tracelog.root }
      in
      let dec = P.Frame.decoder P.Endian.Little in
      P.Frame.feed dec garbage;
      let before = P.Frame.frames dec in
      P.Frame.feed dec (P.Frame.encode ~crc:true P.Endian.Little f);
      let after = P.Frame.frames dec in
      frames_eq [] before && frames_eq [ f ] after && P.Frame.resyncs dec >= 1)

let prop_frame_split_anywhere =
  QCheck.Test.make ~name:"frame decoding independent of chunking" ~count:200
    QCheck.(pair (small_list (string_gen_of_size Gen.(int_range 0 50) Gen.printable)) (int_range 1 64))
    (fun (payloads, chunk) ->
      let fs =
        List.map
          (fun data -> { P.Frame.payload_type = P.Frame.Sys_db; data; trace = Smart_util.Tracelog.root })
          payloads
      in
      let wire =
        String.concat "" (List.map (P.Frame.encode P.Endian.Big) fs)
      in
      let dec = P.Frame.decoder P.Endian.Big in
      let got = ref [] in
      let n = String.length wire in
      let rec feed off =
        if off < n then begin
          let len = min chunk (n - off) in
          P.Frame.feed dec (String.sub wire off len);
          got := !got @ P.Frame.frames dec;
          feed (off + len)
        end
      in
      feed 0;
      frames_eq fs !got)

(* ------------------------------------------------------------------ *)
(* Wizard messages                                                      *)
(* ------------------------------------------------------------------ *)

let test_request_roundtrip () =
  let r =
    {
      P.Wizard_msg.seq = 0x12345678;
      server_num = 6;
      option = P.Wizard_msg.Strict;
      requirement = "host_cpu_free > 0.9\n";
      trace = Smart_util.Tracelog.root;
    }
  in
  match P.Wizard_msg.decode_request (P.Wizard_msg.encode_request r) with
  | Ok d ->
    Alcotest.(check int) "seq" 0x12345678 d.P.Wizard_msg.seq;
    Alcotest.(check int) "server_num" 6 d.P.Wizard_msg.server_num;
    Alcotest.(check bool) "option" true
      (d.P.Wizard_msg.option = P.Wizard_msg.Strict);
    Alcotest.(check string) "requirement" "host_cpu_free > 0.9\n"
      d.P.Wizard_msg.requirement
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_request_empty_requirement () =
  let r =
    {
      P.Wizard_msg.seq = 1;
      server_num = 1;
      option = P.Wizard_msg.Accept_partial;
      requirement = "";
      trace = Smart_util.Tracelog.root;
    }
  in
  match P.Wizard_msg.decode_request (P.Wizard_msg.encode_request r) with
  | Ok d -> Alcotest.(check string) "empty" "" d.P.Wizard_msg.requirement
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_request_truncated () =
  match P.Wizard_msg.decode_request "abc" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated request must not decode"

let test_reply_roundtrip () =
  let r =
    {
      P.Wizard_msg.seq = 77;
      servers = [ "dalmatian"; "dione"; "192.168.1.2" ];
      degraded = false;
      rejected = false;
    }
  in
  match P.Wizard_msg.decode_reply (P.Wizard_msg.encode_reply r) with
  | Ok d ->
    Alcotest.(check int) "seq" 77 d.P.Wizard_msg.seq;
    Alcotest.(check (list string)) "servers"
      [ "dalmatian"; "dione"; "192.168.1.2" ]
      d.P.Wizard_msg.servers;
    Alcotest.(check bool) "fresh" false d.P.Wizard_msg.degraded
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_reply_degraded_flag () =
  (* the degraded bit survives the roundtrip without disturbing seq or
     the server list, and a fresh reply's bytes match the legacy layout *)
  let fresh =
    { P.Wizard_msg.seq = 9; servers = [ "a"; "b" ]; degraded = false;
      rejected = false }
  in
  let stale = { fresh with P.Wizard_msg.degraded = true } in
  let fresh_wire = P.Wizard_msg.encode_reply fresh in
  let stale_wire = P.Wizard_msg.encode_reply stale in
  Alcotest.(check int) "same length" (String.length fresh_wire)
    (String.length stale_wire);
  (match P.Wizard_msg.decode_reply stale_wire with
  | Ok d ->
    Alcotest.(check bool) "degraded" true d.P.Wizard_msg.degraded;
    Alcotest.(check int) "seq intact" 9 d.P.Wizard_msg.seq;
    Alcotest.(check (list string)) "servers intact" [ "a"; "b" ]
      d.P.Wizard_msg.servers
  | Error e -> Alcotest.failf "decode failed: %s" e);
  match P.Wizard_msg.decode_reply fresh_wire with
  | Ok d -> Alcotest.(check bool) "fresh" false d.P.Wizard_msg.degraded
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_reply_rejected_flag () =
  (* bit 14 of the count word carries the admission verdict, independent
     of the degraded bit 15, without disturbing seq or the list; an
     accepted reply's bytes match the legacy layout *)
  let accepted =
    { P.Wizard_msg.seq = 21; servers = []; degraded = false;
      rejected = false }
  in
  let shed = { accepted with P.Wizard_msg.rejected = true } in
  let both = { shed with P.Wizard_msg.degraded = true } in
  let accepted_wire = P.Wizard_msg.encode_reply accepted in
  let shed_wire = P.Wizard_msg.encode_reply shed in
  Alcotest.(check int) "same length" (String.length accepted_wire)
    (String.length shed_wire);
  (* the flag flips exactly one bit (0x40) of one count-word byte *)
  let diffs = ref [] in
  String.iteri
    (fun i ch ->
      let x = Char.code ch lxor Char.code accepted_wire.[i] in
      if x <> 0 then diffs := (i, x) :: !diffs)
    shed_wire;
  (match !diffs with
  | [ (pos, x) ] ->
    Alcotest.(check bool) "inside count word" true (pos = 4 || pos = 5);
    Alcotest.(check int) "bit 14" 0x40 x
  | _ -> Alcotest.fail "rejected flag must flip exactly one byte");
  (match P.Wizard_msg.decode_reply shed_wire with
  | Ok d ->
    Alcotest.(check bool) "rejected" true d.P.Wizard_msg.rejected;
    Alcotest.(check bool) "not degraded" false d.P.Wizard_msg.degraded;
    Alcotest.(check int) "seq intact" 21 d.P.Wizard_msg.seq;
    Alcotest.(check (list string)) "empty list" [] d.P.Wizard_msg.servers
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (match P.Wizard_msg.decode_reply (P.Wizard_msg.encode_reply both) with
  | Ok d ->
    Alcotest.(check bool) "both: rejected" true d.P.Wizard_msg.rejected;
    Alcotest.(check bool) "both: degraded" true d.P.Wizard_msg.degraded
  | Error e -> Alcotest.failf "decode failed: %s" e);
  match P.Wizard_msg.decode_reply accepted_wire with
  | Ok d -> Alcotest.(check bool) "accepted" false d.P.Wizard_msg.rejected
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_reply_empty () =
  let r = { P.Wizard_msg.seq = 1; servers = []; degraded = false; rejected = false } in
  match P.Wizard_msg.decode_reply (P.Wizard_msg.encode_reply r) with
  | Ok d -> Alcotest.(check (list string)) "no servers" [] d.P.Wizard_msg.servers
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_reply_limit () =
  let servers = List.init (P.Ports.max_reply_servers + 1) string_of_int in
  Alcotest.(check bool) "over 60 rejected" true
    (try
       ignore
         (P.Wizard_msg.encode_reply
            { P.Wizard_msg.seq = 1; servers; degraded = false; rejected = false });
       false
     with Invalid_argument _ -> true)

let test_reply_truncated_list () =
  let r = { P.Wizard_msg.seq = 5; servers = [ "abc"; "def" ]; degraded = false;
      rejected = false } in
  let wire = P.Wizard_msg.encode_reply r in
  match P.Wizard_msg.decode_reply (String.sub wire 0 (String.length wire - 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated list must not decode"

(* Every byte of a few replies: the sequence number (low 32 bits, big
   endian), the count word with bit 15 for degraded and bit 14 for
   rejected, then each name behind its length byte. *)
let test_reply_bytes () =
  let check name expected ~seq ?(degraded = false) ?(rejected = false)
      servers =
    Alcotest.(check string) name expected
      (P.Wizard_msg.encode_reply
         { P.Wizard_msg.seq; servers; degraded; rejected })
  in
  check "two names" "\x01\x02\x03\x04\x00\x02\x01a\x02bc" ~seq:0x01020304
    [ "a"; "bc" ];
  check "empty, degraded, seq above 32 bits" "\xDE\xAD\xBE\xEF\x80\x00"
    ~seq:0x1DEADBEEF ~degraded:true [];
  check "rejected" "\x00\x00\x00\x07\x40\x01\x0810.0.0.1" ~seq:7
    ~rejected:true [ "10.0.0.1" ];
  check "both flags" "\x00\x00\x00\x00\xC0\x02\x00\x03srv" ~seq:0
    ~degraded:true ~rejected:true [ ""; "srv" ];
  let long = String.make 255 'h' in
  check "255-byte name" ("\x00\x00\x01\x00\x00\x01\xFF" ^ long) ~seq:256
    [ long ]

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request encode/decode round trip" ~count:300
    QCheck.(
      quad (int_bound 0x3FFFFFFF) (int_bound 60) bool
        (string_gen_of_size Gen.(int_range 0 200) Gen.printable))
    (fun (seq, server_num, strict, requirement) ->
      let r =
        {
          P.Wizard_msg.seq;
          server_num;
          option =
            (if strict then P.Wizard_msg.Strict else P.Wizard_msg.Accept_partial);
          requirement;
          trace = Smart_util.Tracelog.root;
        }
      in
      match P.Wizard_msg.decode_request (P.Wizard_msg.encode_request r) with
      | Ok d -> d = r
      | Error _ -> false)

(* The reversal-free reply decoder against the list-reversing oracle it
   replaced: valid replies, every truncation, counts raised past the
   names present, and arbitrary bytes give the same [Ok] reply or the
   same [Error] string. *)
let prop_reply_decode_matches_oracle =
  QCheck.Test.make ~name:"reply decode matches the list-reversing oracle"
    ~count:500
    QCheck.(
      quad (int_bound 0x3FFFFFFF)
        (list_of_size
           Gen.(int_range 0 P.Ports.max_reply_servers)
           (string_gen_of_size Gen.(int_range 0 20) Gen.printable))
        (pair bool bool)
        (pair (int_range 0 2) small_nat))
    (fun (seq, servers, (degraded, rejected), (shape, cut)) ->
      let wire =
        P.Wizard_msg.encode_reply { P.Wizard_msg.seq; servers; degraded; rejected }
      in
      let s =
        match shape with
        | 0 -> wire
        | 1 -> String.sub wire 0 (cut mod (String.length wire + 1))
        | _ ->
          (* the count word raised by 1-5, the flags kept *)
          let b = Bytes.of_string wire in
          let word = Bytes.get_uint16_be b 4 in
          let count = (word land 0x3FFF) + 1 + (cut mod 5) in
          Bytes.set_uint16_be b 4 (word land 0xC000 lor (count land 0x3FFF));
          Bytes.to_string b
      in
      P.Wizard_msg.decode_reply s = Smart_oracle.Wizard_reply.decode s)

let prop_reply_decode_garbage_matches_oracle =
  QCheck.Test.make ~name:"reply decode of any bytes matches the oracle"
    ~count:500 QCheck.string (fun s ->
      P.Wizard_msg.decode_reply s = Smart_oracle.Wizard_reply.decode s)

let prop_report_roundtrip =
  QCheck.Test.make ~name:"report survives format/parse for random values"
    ~count:300
    QCheck.(array_of_size (Gen.return 21) (float_range 0.0 1e6))
    (fun values ->
      let v i = values.(i) in
      let r =
        {
          P.Report.host = "h";
          ip = "1.2.3.4";
          load1 = v 0; load5 = v 1; load15 = v 2;
          cpu_user = v 3; cpu_nice = v 4; cpu_system = v 5; cpu_free = v 6;
          bogomips = v 7;
          mem_total = v 8; mem_used = v 9; mem_free = v 10;
          mem_buffers = v 11; mem_cached = v 12;
          disk_rreq = v 13; disk_rblocks = v 14; disk_wreq = v 15;
          disk_wblocks = v 16;
          net_rbytes = v 17; net_rpackets = v 18; net_tbytes = v 19;
          net_tpackets = v 20;
        }
      in
      match P.Report.decode (P.Report.to_string r) with
      | Ok (d, _) ->
        (* %.6g costs precision; require 6 significant digits *)
        Float.abs (d.P.Report.load1 -. r.P.Report.load1)
        <= Float.abs r.P.Report.load1 *. 1e-5 +. 1e-5
        && Float.abs (d.P.Report.net_tpackets -. r.P.Report.net_tpackets)
           <= Float.abs r.P.Report.net_tpackets *. 1e-5 +. 1e-5
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Trace-context propagation on the wire                                *)
(* ------------------------------------------------------------------ *)

let ctx = { Smart_util.Tracelog.trace_id = 0xDEAD; span_id = 0x42 }

let test_request_traced_roundtrip () =
  let r =
    {
      P.Wizard_msg.seq = 9;
      server_num = 3;
      option = P.Wizard_msg.Accept_partial;
      requirement = "host_cpu_free > 0.5\n";
      trace = ctx;
    }
  in
  let wire = P.Wizard_msg.encode_request r in
  (* traced header is 16 bytes; untraced stays the original 8 *)
  Alcotest.(check int) "traced header size"
    (16 + String.length r.P.Wizard_msg.requirement)
    (String.length wire);
  let untraced =
    P.Wizard_msg.encode_request { r with P.Wizard_msg.trace = Smart_util.Tracelog.root }
  in
  Alcotest.(check int) "untraced header unchanged"
    (8 + String.length r.P.Wizard_msg.requirement)
    (String.length untraced);
  match P.Wizard_msg.decode_request wire with
  | Ok d ->
    Alcotest.(check int) "trace id" 0xDEAD d.P.Wizard_msg.trace.Smart_util.Tracelog.trace_id;
    Alcotest.(check int) "span id" 0x42 d.P.Wizard_msg.trace.Smart_util.Tracelog.span_id;
    Alcotest.(check int) "seq" 9 d.P.Wizard_msg.seq;
    Alcotest.(check string) "requirement" r.P.Wizard_msg.requirement
      d.P.Wizard_msg.requirement
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_request_traced_malformed () =
  let r =
    {
      P.Wizard_msg.seq = 9;
      server_num = 3;
      option = P.Wizard_msg.Strict;
      requirement = "x\n";
      trace = ctx;
    }
  in
  let wire = P.Wizard_msg.encode_request r in
  (* cut inside the trace context: must be rejected, not misparsed *)
  (match P.Wizard_msg.decode_request (String.sub wire 0 12) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated trace context must not decode");
  (* an unknown option-word bit is a decode error, traced or not *)
  let b = Bytes.of_string wire in
  Bytes.set_uint16_be b 6 (Char.code (Bytes.get b 7) lor 4);
  match P.Wizard_msg.decode_request (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown option bit must not decode"

let test_frame_traced_roundtrip () =
  let fs =
    [
      { P.Frame.payload_type = P.Frame.Sys_db; data = "sysdata"; trace = ctx };
      { P.Frame.payload_type = P.Frame.Net_db; data = ""; trace = ctx };
      {
        P.Frame.payload_type = P.Frame.Sec_db;
        data = "mixed";
        trace = Smart_util.Tracelog.root;
      };
    ]
  in
  let wire = String.concat "" (List.map (P.Frame.encode P.Endian.Big) fs) in
  (* feed byte-by-byte so the ctx bytes cross segment boundaries *)
  let dec = P.Frame.decoder P.Endian.Big in
  let got = ref [] in
  String.iter
    (fun c ->
      P.Frame.feed dec (String.make 1 c);
      got := !got @ P.Frame.frames dec)
    wire;
  Alcotest.(check bool) "payloads survive" true (frames_eq fs !got);
  match !got with
  | [ a; b; c ] ->
    Alcotest.(check int) "frame 1 trace id" 0xDEAD
      a.P.Frame.trace.Smart_util.Tracelog.trace_id;
    Alcotest.(check int) "frame 1 span id" 0x42
      a.P.Frame.trace.Smart_util.Tracelog.span_id;
    Alcotest.(check int) "frame 2 trace id" 0xDEAD
      b.P.Frame.trace.Smart_util.Tracelog.trace_id;
    Alcotest.(check bool) "untraced frame decodes to root" true
      (Smart_util.Tracelog.is_root c.P.Frame.trace)
  | other -> Alcotest.failf "expected 3 frames, got %d" (List.length other)

let test_frame_untraced_bytes_unchanged () =
  (* the traced encoding is strictly additive: without a ctx the wire
     bytes are the pre-trace [type,size,data] format *)
  let f =
    { P.Frame.payload_type = P.Frame.Sys_db; data = "abc";
      trace = Smart_util.Tracelog.root }
  in
  let wire = P.Frame.encode P.Endian.Little f in
  Alcotest.(check int) "8-byte header only" (8 + 3) (String.length wire);
  let b = Bytes.of_string wire in
  Alcotest.(check int32) "plain type code" 1l (Bytes.get_int32_le b 0);
  let traced = P.Frame.encode P.Endian.Little { f with P.Frame.trace = ctx } in
  Alcotest.(check int) "traced adds exactly 8 bytes" (16 + 3)
    (String.length traced);
  (* Sys_db's code 1 plus the traced offset 16 *)
  Alcotest.(check int32) "offset type code" 17l
    (Bytes.get_int32_le (Bytes.of_string traced) 0)

let test_report_trace_suffix () =
  let untraced = P.Report.to_string sample_report in
  let traced = P.Report.to_string ~trace:ctx sample_report in
  Alcotest.(check string) "traced = untraced + suffix"
    (Printf.sprintf "%s|TR|%d|%d" untraced 0xDEAD 0x42)
    traced;
  (match P.Report.decode traced with
  | Ok (r, c) ->
    Alcotest.(check string) "host survives" "helene" r.P.Report.host;
    Alcotest.(check int) "trace id" 0xDEAD c.Smart_util.Tracelog.trace_id;
    Alcotest.(check int) "span id" 0x42 c.Smart_util.Tracelog.span_id
  | Error e -> Alcotest.failf "traced decode failed: %s" e);
  match P.Report.decode untraced with
  | Ok (r, c) ->
    Alcotest.(check string) "untraced host" "helene" r.P.Report.host;
    Alcotest.(check bool) "untraced ctx is root" true
      (Smart_util.Tracelog.is_root c)
  | Error e -> Alcotest.failf "untraced decode failed: %s" e

let test_trace_msg_roundtrip () =
  Alcotest.(check string) "text request" "SMART-TRACE text"
    (P.Trace_msg.encode_request P.Trace_msg.Text);
  Alcotest.(check string) "json request" "SMART-TRACE json"
    (P.Trace_msg.encode_request P.Trace_msg.Json);
  let dec s = P.Trace_msg.decode_request s in
  Alcotest.(check bool) "text decodes" true (dec "SMART-TRACE text" = Some P.Trace_msg.Text);
  Alcotest.(check bool) "bare magic means text" true
    (dec "SMART-TRACE" = Some P.Trace_msg.Text);
  Alcotest.(check bool) "json decodes" true (dec "SMART-TRACE json" = Some P.Trace_msg.Json);
  Alcotest.(check bool) "garbage suffix refused" true (dec "SMART-TRACE xml" = None);
  Alcotest.(check bool) "metrics magic refused" true (dec "SMART-METRICS" = None);
  Alcotest.(check bool) "prefix-only refused" true (dec "SMART-TRAC" = None);
  let log = Smart_util.Tracelog.create ~clock:(fun () -> 1.0) () in
  let span = Smart_util.Tracelog.start log "probe.tick" in
  Smart_util.Tracelog.finish log span;
  let contains ~affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "text reply names the span" true
    (contains ~affix:"probe.tick" (P.Trace_msg.encode_reply P.Trace_msg.Text log));
  Alcotest.(check bool) "json reply is a chrome trace" true
    (contains ~affix:"\"ph\":\"X\"" (P.Trace_msg.encode_reply P.Trace_msg.Json log))

let prop_traced_request_roundtrip =
  QCheck.Test.make ~name:"traced request round trips any context" ~count:200
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
    (fun (trace_id, span_id) ->
      let r =
        {
          P.Wizard_msg.seq = 5;
          server_num = 2;
          option = P.Wizard_msg.Accept_partial;
          requirement = "r\n";
          trace = { Smart_util.Tracelog.trace_id; span_id };
        }
      in
      match P.Wizard_msg.decode_request (P.Wizard_msg.encode_request r) with
      | Ok d -> d = r
      | Error _ -> false)

let prop_sys_record_roundtrip_both_orders =
  QCheck.Test.make ~name:"sys record round trips in both byte orders"
    ~count:200
    QCheck.(pair bool (float_range 0.0 1e9))
    (fun (big, ts) ->
      let order = if big then P.Endian.Big else P.Endian.Little in
      let r = { P.Records.report = sample_report; updated_at = ts } in
      let d =
        P.Records.decode_wire
          (P.Records.sys_wire order (P.Records.encode_sys order r) ~pos:0)
      in
      Float.abs (d.P.Records.updated_at -. ts) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Federation: digests and root <-> shard messages                      *)
(* ------------------------------------------------------------------ *)

(* A digest of no servers, and one value folded into a column. *)
let empty_digest ~shard =
  let e = P.Digest.empty_stat in
  {
    P.Digest.shard;
    generation = 0;
    servers = 0;
    sys = Array.make Smart_lang.Bytecode.sys_field_count e;
    net_delay = e;
    net_bw = e;
    sec_level = e;
  }

let observe (s : P.Digest.stat) v =
  { P.Digest.present = s.present + 1; lo = Float.min s.lo v; hi = Float.max s.hi v }

let sample_digest =
  let d = empty_digest ~shard:"shard-a" in
  let sys =
    Array.mapi
      (fun i stat ->
        if i mod 3 = 0 then stat  (* leave a few columns empty *)
        else observe (observe stat (float_of_int i *. 1.5)) (float_of_int i *. -0.25))
      d.P.Digest.sys
  in
  {
    d with
    P.Digest.generation = 42;
    servers = 7;
    sys;
    net_delay = { P.Digest.present = 3; lo = 0.2; hi = 8.0 };
    sec_level = { P.Digest.present = 7; lo = 1.0; hi = 5.0 };
  }

let check_stat msg (a : P.Digest.stat) (b : P.Digest.stat) =
  Alcotest.(check int) (msg ^ " present") a.P.Digest.present b.P.Digest.present;
  Alcotest.(check bool)
    (msg ^ " lo") true
    (Float.compare a.P.Digest.lo b.P.Digest.lo = 0);
  Alcotest.(check bool)
    (msg ^ " hi") true
    (Float.compare a.P.Digest.hi b.P.Digest.hi = 0)

let test_digest_roundtrip () =
  List.iter
    (fun order ->
      match P.Digest.decode order (P.Digest.encode order sample_digest) with
      | Error e -> Alcotest.failf "digest decode failed: %s" e
      | Ok d ->
        Alcotest.(check string) "shard" "shard-a" d.P.Digest.shard;
        Alcotest.(check int) "generation" 42 d.P.Digest.generation;
        Alcotest.(check int) "servers" 7 d.P.Digest.servers;
        Array.iteri
          (fun i stat -> check_stat (Printf.sprintf "sys.%d" i)
              sample_digest.P.Digest.sys.(i) stat)
          d.P.Digest.sys;
        check_stat "net_delay" sample_digest.P.Digest.net_delay
          d.P.Digest.net_delay;
        check_stat "net_bw" sample_digest.P.Digest.net_bw d.P.Digest.net_bw;
        check_stat "sec_level" sample_digest.P.Digest.sec_level
          d.P.Digest.sec_level)
    [ P.Endian.Little; P.Endian.Big ]

let test_digest_truncated () =
  let s = P.Digest.encode P.Endian.Big sample_digest in
  for cut = 0 to min 40 (String.length s - 1) do
    match P.Digest.decode P.Endian.Big (String.sub s 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncated digest (%d bytes) decoded" cut
  done

let digest_stat_arb =
  QCheck.map
    (fun (vals : float list) -> List.fold_left observe P.Digest.empty_stat vals)
    QCheck.(small_list (float_range (-1e6) 1e6))

let digest_arb =
  let nsys = Smart_lang.Bytecode.sys_field_count in
  QCheck.map
    (fun (gen, stats) ->
      let d = empty_digest ~shard:"s" in
      let sys =
        Array.init nsys (fun i ->
            match List.nth_opt stats (i mod max 1 (List.length stats)) with
            | Some s -> s
            | None -> P.Digest.empty_stat)
      in
      { d with P.Digest.generation = gen; servers = gen mod 97; sys })
    QCheck.(pair small_nat (small_list digest_stat_arb))

let stat_equal (a : P.Digest.stat) (b : P.Digest.stat) =
  a.P.Digest.present = b.P.Digest.present
  && Float.compare a.P.Digest.lo b.P.Digest.lo = 0
  && Float.compare a.P.Digest.hi b.P.Digest.hi = 0

let digest_equal (a : P.Digest.t) (b : P.Digest.t) =
  a.P.Digest.generation = b.P.Digest.generation
  && a.P.Digest.servers = b.P.Digest.servers
  && Array.for_all2 stat_equal a.P.Digest.sys b.P.Digest.sys
  && stat_equal a.P.Digest.net_delay b.P.Digest.net_delay
  && stat_equal a.P.Digest.net_bw b.P.Digest.net_bw
  && stat_equal a.P.Digest.sec_level b.P.Digest.sec_level

let prop_digest_roundtrip =
  QCheck.Test.make ~name:"digest round trips in both byte orders" ~count:200
    QCheck.(pair bool digest_arb)
    (fun (big, d) ->
      let order = if big then P.Endian.Big else P.Endian.Little in
      match P.Digest.decode order (P.Digest.encode order d) with
      | Ok d' -> digest_equal d d'
      | Error _ -> false)

let test_fed_query_roundtrip () =
  let q =
    {
      P.Fed_msg.seq = 0xDEAD;
      wanted = 12;
      requirement = "host_cpu_free > 0.5\n";
      trace = Smart_util.Tracelog.root;
    }
  in
  (match P.Fed_msg.decode_query (P.Fed_msg.encode_query q) with
  | Ok d -> Alcotest.(check bool) "untraced query" true (d = q)
  | Error e -> Alcotest.failf "query decode failed: %s" e);
  let traced =
    { q with P.Fed_msg.trace = { Smart_util.Tracelog.trace_id = 7; span_id = 9 } }
  in
  match P.Fed_msg.decode_query (P.Fed_msg.encode_query traced) with
  | Ok d -> Alcotest.(check bool) "traced query" true (d = traced)
  | Error e -> Alcotest.failf "traced query decode failed: %s" e

let test_fed_query_rejects () =
  let is_err s =
    match P.Fed_msg.decode_query s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "empty" true (is_err "");
  Alcotest.(check bool) "bad magic" true (is_err "SFX1aaaaaaaaaa");
  Alcotest.(check bool) "reply magic" true
    (is_err (P.Fed_msg.encode_reply
       { P.Fed_msg.seq = 1; shard = "s"; generation = 0; degraded = false;
         candidates = [] }));
  let q =
    {
      P.Fed_msg.seq = 1;
      wanted = 1;
      requirement = "r\n";
      trace = Smart_util.Tracelog.root;
    }
  in
  (* the requirement is the datagram tail, so only header cuts are
     detectable as truncation *)
  let enc = P.Fed_msg.encode_query q in
  Alcotest.(check bool) "header truncated" true (is_err (String.sub enc 0 8))

let test_fed_reply_roundtrip () =
  let r =
    {
      P.Fed_msg.seq = 77;
      shard = "region-b";
      generation = 1234;
      degraded = true;
      candidates =
        [
          { P.Fed_msg.host = "alpha"; rank = 0; key = neg_infinity };
          { P.Fed_msg.host = "beta"; rank = -1; key = 3.5 };
          { P.Fed_msg.host = "gamma"; rank = -1; key = Float.nan };
        ];
    }
  in
  match P.Fed_msg.decode_reply (P.Fed_msg.encode_reply r) with
  | Error e -> Alcotest.failf "reply decode failed: %s" e
  | Ok d ->
    Alcotest.(check int) "seq" 77 d.P.Fed_msg.seq;
    Alcotest.(check string) "shard" "region-b" d.P.Fed_msg.shard;
    Alcotest.(check int) "generation" 1234 d.P.Fed_msg.generation;
    Alcotest.(check bool) "degraded" true d.P.Fed_msg.degraded;
    (match d.P.Fed_msg.candidates with
    | [ a; b; c ] ->
      Alcotest.(check string) "a host" "alpha" a.P.Fed_msg.host;
      Alcotest.(check int) "a rank" 0 a.P.Fed_msg.rank;
      Alcotest.(check bool) "a key" true
        (Float.compare a.P.Fed_msg.key neg_infinity = 0);
      Alcotest.(check int) "b rank" (-1) b.P.Fed_msg.rank;
      Alcotest.(check (float 1e-9)) "b key" 3.5 b.P.Fed_msg.key;
      (* NaN must survive the wire: it is how a faulted order_by sorts
         after every real key at the root *)
      Alcotest.(check bool) "c key NaN" true (Float.is_nan c.P.Fed_msg.key)
    | l -> Alcotest.failf "expected 3 candidates, got %d" (List.length l))

let fed_candidate_arb =
  QCheck.map
    (fun (host, rank, key_choice, key) ->
      {
        P.Fed_msg.host = (if host = "" then "h" else host);
        rank = (if rank >= 0 then rank mod 0xFFFF else -1);
        key =
          (match key_choice mod 3 with
          | 0 -> key
          | 1 -> neg_infinity
          | _ -> Float.nan);
      })
    QCheck.(quad small_printable_string small_signed_int small_nat
              (float_range (-1e9) 1e9))

let prop_fed_reply_roundtrip =
  QCheck.Test.make ~name:"fed reply round trips any candidate list"
    ~count:200
    QCheck.(quad small_nat small_printable_string bool
              (small_list fed_candidate_arb))
    (fun (seq, shard, degraded, candidates) ->
      let r = { P.Fed_msg.seq; shard; generation = seq * 3; degraded;
                candidates } in
      match P.Fed_msg.decode_reply (P.Fed_msg.encode_reply r) with
      | Error _ -> false
      | Ok d ->
        d.P.Fed_msg.seq = r.P.Fed_msg.seq
        && String.equal d.P.Fed_msg.shard r.P.Fed_msg.shard
        && d.P.Fed_msg.degraded = degraded
        && List.for_all2
             (fun (a : P.Fed_msg.candidate) (b : P.Fed_msg.candidate) ->
               String.equal a.P.Fed_msg.host b.P.Fed_msg.host
               && a.P.Fed_msg.rank = b.P.Fed_msg.rank
               && (Float.is_nan a.P.Fed_msg.key = Float.is_nan b.P.Fed_msg.key)
               && (Float.is_nan a.P.Fed_msg.key
                  || Float.compare a.P.Fed_msg.key b.P.Fed_msg.key = 0))
             r.P.Fed_msg.candidates d.P.Fed_msg.candidates)

(* ------------------------------------------------------------------ *)
(* Federation: sketch batches (Sketch_db, type code 5)                  *)
(* ------------------------------------------------------------------ *)

module Sk = Smart_util.Sketch

let sketch_with ~seed ?(k = 16) values =
  let s = Sk.create ~k ~rng:(Smart_util.Prng.create ~seed) () in
  List.iter (Sk.observe s) values;
  s

let sample_sketch_batch =
  {
    P.Sketch_msg.shard = "region-a";
    entries =
      [
        ( "wizard.request_latency_seconds",
          sketch_with ~seed:1 (List.init 100 (fun i -> float_of_int i /. 7.0))
        );
        (* compacted: several levels and a non-zero error weight ride
           the wire too *)
        ("probe.load1", sketch_with ~seed:2 ~k:8
           (List.init 400 (fun i -> float_of_int (i mod 17))));
        ("empty.metric", sketch_with ~seed:3 []);
      ];
  }

let check_sketch_batch_eq msg (a : P.Sketch_msg.t) (b : P.Sketch_msg.t) =
  Alcotest.(check string) (msg ^ " shard") a.P.Sketch_msg.shard
    b.P.Sketch_msg.shard;
  Alcotest.(check (list string))
    (msg ^ " names")
    (List.map fst a.P.Sketch_msg.entries)
    (List.map fst b.P.Sketch_msg.entries);
  List.iter2
    (fun (name, sa) (_, sb) ->
      Alcotest.(check bool) (msg ^ " sketch " ^ name) true (Smart_oracle.Sketch_state.equal sa sb);
      Alcotest.(check int64)
        (msg ^ " prng state " ^ name)
        (Sk.rng_state sa) (Sk.rng_state sb))
    a.P.Sketch_msg.entries b.P.Sketch_msg.entries

let test_sketch_msg_roundtrip () =
  List.iter
    (fun order ->
      let wire = P.Sketch_msg.encode order sample_sketch_batch in
      match P.Sketch_msg.decode order wire with
      | Error e -> Alcotest.failf "sketch batch decode failed: %s" e
      | Ok d ->
        check_sketch_batch_eq "roundtrip" sample_sketch_batch d;
        (* the PRNG state rides the wire, so a re-encode is the exact
           same bytes — the root continues the shard's stream *)
        Alcotest.(check string) "re-encode byte-identical" wire
          (P.Sketch_msg.encode order d))
    [ P.Endian.Little; P.Endian.Big ]

let test_sketch_msg_truncated () =
  let wire = P.Sketch_msg.encode P.Endian.Little sample_sketch_batch in
  for cut = 0 to String.length wire - 1 do
    match P.Sketch_msg.decode P.Endian.Little (String.sub wire 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncated batch (%d bytes) decoded" cut
  done

(* Hand-built minimal batch (shard "s", one entry named "m") so field
   offsets are known: shard_len@0, 's'@2, count@3, name_len@5, 'm'@7,
   k@8, nlevels@10, err@12, min@20, max@28, rng@36, level len@44. *)
let test_sketch_msg_adversarial () =
  let batch =
    { P.Sketch_msg.shard = "s";
      entries = [ ("m", sketch_with ~seed:4 [ 1.0; 2.0; 3.0 ]) ] }
  in
  let wire = P.Sketch_msg.encode P.Endian.Little batch in
  let is_err s =
    match P.Sketch_msg.decode P.Endian.Little s with
    | Error _ -> true
    | Ok _ -> false
  in
  let tampered pos bytes =
    let b = Bytes.of_string wire in
    List.iteri (fun i c -> Bytes.set b (pos + i) c) bytes;
    Bytes.to_string b
  in
  Alcotest.(check bool) "odd k rejected" true
    (is_err (tampered 8 [ '\x07'; '\x00' ]));
  Alcotest.(check bool) "hostile level count rejected" true
    (is_err (tampered 10 [ '\xFF'; '\xFF' ]));
  Alcotest.(check bool) "hostile level length rejected" true
    (is_err (tampered 44 [ '\xFF'; '\xFF'; '\xFF'; '\xFF' ]));
  Alcotest.(check bool) "trailing bytes rejected" true (is_err (wire ^ "Z"));
  Alcotest.(check bool) "intact wire still decodes" true (not (is_err wire))

let test_frame_carries_sketch_db () =
  let data = P.Sketch_msg.encode P.Endian.Little sample_sketch_batch in
  Alcotest.(check int) "type code 5" 5
    (P.Endian.get_u32 P.Endian.Little ~pos:0
       (P.Frame.encode P.Endian.Little
          { P.Frame.payload_type = P.Frame.Sketch_db; data;
            trace = Smart_util.Tracelog.root }));
  let check_variant name ~crc trace =
    let f = { P.Frame.payload_type = P.Frame.Sketch_db; data; trace } in
    match decode_all P.Endian.Little (P.Frame.encode ~crc P.Endian.Little f) with
    | [ g ] ->
      Alcotest.(check bool) (name ^ " type survives") true
        (g.P.Frame.payload_type = P.Frame.Sketch_db);
      Alcotest.(check string) (name ^ " payload survives") data g.P.Frame.data;
      Alcotest.(check bool) (name ^ " trace survives") true
        (g.P.Frame.trace = trace);
      (match P.Sketch_msg.decode P.Endian.Little g.P.Frame.data with
      | Ok d -> check_sketch_batch_eq name sample_sketch_batch d
      | Error e -> Alcotest.failf "%s: inner decode failed: %s" name e)
    | _ -> Alcotest.failf "%s: frame decode failed" name
  in
  check_variant "plain" ~crc:false Smart_util.Tracelog.root;
  check_variant "crc" ~crc:true Smart_util.Tracelog.root;
  check_variant "traced" ~crc:false
    { Smart_util.Tracelog.trace_id = 11; span_id = 13 };
  check_variant "traced+crc" ~crc:true
    { Smart_util.Tracelog.trace_id = 17; span_id = 19 }

let prop_sketch_msg_roundtrip =
  QCheck.Test.make ~name:"sketch batch round trips in both byte orders"
    ~count:200
    QCheck.(
      triple bool small_printable_string
        (pair
           (list_of_size Gen.(int_range 0 200) (float_range (-1e6) 1e6))
           (list_of_size Gen.(int_range 0 200) (float_range (-1e6) 1e6))))
    (fun (big, shard, (xs, ys)) ->
      let order = if big then P.Endian.Big else P.Endian.Little in
      let batch =
        { P.Sketch_msg.shard;
          entries =
            [ ("a", sketch_with ~seed:5 ~k:8 xs);
              ("b", sketch_with ~seed:6 ys) ] }
      in
      let wire = P.Sketch_msg.encode order batch in
      match P.Sketch_msg.decode order wire with
      | Error _ -> false
      | Ok d ->
        String.equal d.P.Sketch_msg.shard shard
        && List.for_all2
             (fun (na, sa) (nb, sb) ->
               String.equal na nb && Smart_oracle.Sketch_state.equal sa sb
               && Int64.equal (Sk.rng_state sa) (Sk.rng_state sb))
             batch.P.Sketch_msg.entries d.P.Sketch_msg.entries
        && String.equal wire (P.Sketch_msg.encode order d))

(* ------------------------------------------------------------------ *)
(* Decoders never raise                                                 *)
(* ------------------------------------------------------------------ *)

(* Every wire decoder beside one valid encoding of its input (both byte
   orders where the format has one).  Running a decoder returns unit
   whatever it decided — [Ok], [Error], [Some] or [None] — so the only
   way to fail is to raise. *)
let wire_decoders =
  let ordered name encode decode =
    List.map
      (fun (order, tag) -> (name ^ " " ^ tag, encode order, decode order))
      [ (P.Endian.Little, "LE"); (P.Endian.Big, "BE") ]
  in
  let ok_or_error r = ignore (r : (_, string) result) in
  [
    ( "wizard request",
      P.Wizard_msg.encode_request
        {
          P.Wizard_msg.seq = 0x01020304;
          server_num = 5;
          option = P.Wizard_msg.Strict;
          requirement = "host_cpu_free > 0.5\norder_by = host_memory_free\n";
          trace = ctx;
        },
      fun s -> ok_or_error (P.Wizard_msg.decode_request s) );
    ( "wizard reply",
      P.Wizard_msg.encode_reply
        {
          P.Wizard_msg.seq = 9;
          servers = [ "alpha"; "10.0.0.2" ];
          degraded = true;
          rejected = false;
        },
      fun s -> ok_or_error (P.Wizard_msg.decode_reply s) );
    ( "fed query",
      P.Fed_msg.encode_query
        {
          P.Fed_msg.seq = 3;
          wanted = 4;
          requirement = "host_cpu_free > 0.5\n";
          trace = ctx;
        },
      fun s -> ok_or_error (P.Fed_msg.decode_query s) );
    ( "fed reply",
      P.Fed_msg.encode_reply
        {
          P.Fed_msg.seq = 3;
          shard = "region-a";
          generation = 12;
          degraded = false;
          candidates =
            [
              { P.Fed_msg.host = "alpha"; rank = 0; key = 1.5 };
              { P.Fed_msg.host = "beta"; rank = -1; key = Float.nan };
            ];
        },
      fun s -> ok_or_error (P.Fed_msg.decode_reply s) );
    ( "report decode",
      P.Report.to_string ~trace:ctx sample_report,
      fun s -> ok_or_error (P.Report.decode s) );
    ( "report decode untraced",
      P.Report.to_string sample_report,
      fun s -> ok_or_error (P.Report.decode s) );
    ( "metrics scrape",
      P.Metrics_msg.encode_request P.Metrics_msg.Json,
      fun s -> ignore (P.Metrics_msg.decode_request s : _ option) );
    ( "trace scrape",
      P.Trace_msg.encode_request P.Trace_msg.Json,
      fun s -> ignore (P.Trace_msg.decode_request s : _ option) );
  ]
  @ ordered "digest"
      (fun order -> P.Digest.encode order sample_digest)
      (fun order s -> ok_or_error (P.Digest.decode order s))
  @ ordered "sketch batch"
      (fun order -> P.Sketch_msg.encode order sample_sketch_batch)
      (fun order s -> ok_or_error (P.Sketch_msg.decode order s))
  @ ordered "sys record"
      (fun order -> P.Records.encode_sys order sys_record)
      (fun order s ->
        match P.Records.sys_wire order s ~pos:0 with
        | w -> ignore (P.Records.decode_wire w : P.Records.sys_record)
        | exception Invalid_argument _ ->
          (* refused only when the record does not fit *)
          assert (String.length s < P.Records.sys_record_size))
  @ ordered "net record"
      (fun order -> P.Records.encode_net order net_record)
      (fun order s -> ok_or_error (P.Records.decode_net order s))
  @ ordered "sec record"
      (fun order ->
        P.Records.encode_sec order
          {
            P.Records.entries =
              [
                { P.Records.host = "alpha"; level = 5 };
                { P.Records.host = "beta"; level = 0 };
              ];
          })
      (fun order s -> ok_or_error (P.Records.decode_sec order s))

(* A valid encoding with 1-4 bytes flipped, cut short, or extended by
   up to 16 arbitrary bytes. *)
let mutated valid =
  let open QCheck.Gen in
  let n = String.length valid in
  let flip =
    int_range 1 4 >>= fun k ->
    list_repeat k (pair (int_bound (n - 1)) (int_range 1 255)) >|= fun flips ->
    let b = Bytes.of_string valid in
    List.iter
      (fun (i, x) ->
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x)))
      flips;
    Bytes.to_string b
  in
  let truncate = int_bound (n - 1) >|= fun cut -> String.sub valid 0 cut in
  let extend =
    string_size ~gen:char (int_range 1 16) >|= fun tail -> valid ^ tail
  in
  oneof [ flip; truncate; extend ]

let decoder_input_arb =
  let gen =
    let open QCheck.Gen in
    oneofl wire_decoders >>= fun ((_, valid, _) as decoder) ->
    frequency
      [ (1, string_size ~gen:char (int_range 0 128)); (3, mutated valid) ]
    >|= fun input -> (decoder, input)
  in
  QCheck.make gen ~print:(fun ((name, _, _), input) ->
      Printf.sprintf "%s on %S" name input)

let prop_decoders_never_raise =
  QCheck.Test.make ~name:"every wire decoder is total on hostile bytes"
    ~count:5000 decoder_input_arb (fun ((_, _, decode), input) ->
      decode input;
      true)

let () =
  Alcotest.run "smart_proto"
    [
      ( "report",
        [
          Alcotest.test_case "round trip" `Quick test_report_roundtrip;
          Alcotest.test_case "size budget" `Quick test_report_size_budget;
          Alcotest.test_case "bad inputs" `Quick test_report_bad_inputs;
          Alcotest.test_case "variable binding" `Quick
            test_report_variable_binding;
        ] );
      ( "records",
        [
          Alcotest.test_case "sys LE round trip" `Quick test_sys_record_le;
          Alcotest.test_case "sys BE round trip" `Quick test_sys_record_be;
          Alcotest.test_case "endian mismatch garbles" `Quick
            test_sys_record_endian_mismatch;
          Alcotest.test_case "truncated" `Quick test_sys_record_truncated;
          Alcotest.test_case "concatenated records" `Quick
            test_sys_record_concatenation;
          Alcotest.test_case "net round trip" `Quick test_net_record_roundtrip;
          Alcotest.test_case "net empty" `Quick test_net_record_empty;
          Alcotest.test_case "sec round trip" `Quick test_sec_record_roundtrip;
          Alcotest.test_case "security log" `Quick test_security_log_parsing;
          Alcotest.test_case "security log bad" `Quick test_security_log_bad;
        ] );
      ( "frames",
        [
          Alcotest.test_case "round trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "incremental" `Quick test_frame_incremental;
          Alcotest.test_case "split frame copies linear" `Quick
            test_frame_split_linear;
          Alcotest.test_case "unknown type resyncs" `Quick
            test_frame_unknown_type_resyncs;
          Alcotest.test_case "oversized resyncs" `Quick
            test_frame_oversized_resyncs;
          Alcotest.test_case "truncated waits" `Quick test_frame_truncated_waits;
          Alcotest.test_case "decode_one truncated" `Quick
            test_frame_decode_one_truncated;
          Alcotest.test_case "crc detects flip" `Quick test_frame_crc_detects_flip;
          Alcotest.test_case "crc roundtrip, plain compat" `Quick
            test_frame_crc_roundtrip_plain_compat;
        ] );
      ( "wizard messages",
        [
          Alcotest.test_case "request round trip" `Quick test_request_roundtrip;
          Alcotest.test_case "empty requirement" `Quick
            test_request_empty_requirement;
          Alcotest.test_case "request truncated" `Quick test_request_truncated;
          Alcotest.test_case "reply round trip" `Quick test_reply_roundtrip;
          Alcotest.test_case "reply empty" `Quick test_reply_empty;
          Alcotest.test_case "reply limit" `Quick test_reply_limit;
          Alcotest.test_case "reply truncated" `Quick test_reply_truncated_list;
          Alcotest.test_case "reply bytes" `Quick test_reply_bytes;
          Alcotest.test_case "reply degraded flag" `Quick
            test_reply_degraded_flag;
          Alcotest.test_case "reply rejected flag" `Quick
            test_reply_rejected_flag;
        ] );
      ( "trace plane",
        [
          Alcotest.test_case "traced request round trip" `Quick
            test_request_traced_roundtrip;
          Alcotest.test_case "traced request malformed" `Quick
            test_request_traced_malformed;
          Alcotest.test_case "traced frame round trip" `Quick
            test_frame_traced_roundtrip;
          Alcotest.test_case "untraced frame bytes unchanged" `Quick
            test_frame_untraced_bytes_unchanged;
          Alcotest.test_case "report trace suffix" `Quick
            test_report_trace_suffix;
          Alcotest.test_case "trace scrape messages" `Quick
            test_trace_msg_roundtrip;
        ] );
      ( "federation",
        [
          Alcotest.test_case "digest round trip" `Quick test_digest_roundtrip;
          Alcotest.test_case "digest truncated" `Quick test_digest_truncated;
          Alcotest.test_case "query round trip" `Quick test_fed_query_roundtrip;
          Alcotest.test_case "query rejects" `Quick test_fed_query_rejects;
          Alcotest.test_case "reply round trip" `Quick test_fed_reply_roundtrip;
          Alcotest.test_case "sketch batch round trip" `Quick
            test_sketch_msg_roundtrip;
          Alcotest.test_case "sketch batch truncated" `Quick
            test_sketch_msg_truncated;
          Alcotest.test_case "sketch batch adversarial" `Quick
            test_sketch_msg_adversarial;
          Alcotest.test_case "frame carries Sketch_db" `Quick
            test_frame_carries_sketch_db;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_frame_split_anywhere;
            prop_frame_resync_recovers;
            prop_request_roundtrip;
            prop_reply_decode_matches_oracle;
            prop_reply_decode_garbage_matches_oracle;
            prop_report_roundtrip;
            prop_sys_record_roundtrip_both_orders;
            prop_traced_request_roundtrip;
            prop_digest_roundtrip;
            prop_fed_reply_roundtrip;
            prop_sketch_msg_roundtrip;
            prop_decoders_never_raise;
          ] );
    ]
