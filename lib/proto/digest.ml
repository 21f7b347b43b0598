(* Per-shard status summary — the federation's "digest" frame payload
   (DESIGN.md §13).

   A regional wizard summarizes its shard's columnar snapshot into one
   small record: for every status column, how many servers carry a value
   and the [lo, hi] range those values span.

   The root wizard uses digests for query routing only — interval tests
   that prove "no server of this shard can qualify".  Ranges are
   conservative by construction, so a stale digest can only cost a
   wasted subquery, never a wrongly skipped shard (the shard re-checks
   every server anyway). *)

type stat = { present : int; lo : float; hi : float }

(* No observations.  [lo > hi] encodes the empty interval without an
   option. *)
let empty_stat = { present = 0; lo = infinity; hi = neg_infinity }

type t = {
  shard : string;
  generation : int;
  servers : int;
  sys : stat array;
  net_delay : stat;
  net_bw : stat;
  sec_level : stat;
}

(* Wire layout (within a [Frame.Digest_db] payload):

     shard_len u16, shard bytes,
     generation u32, servers u32, nsys u16,
     (nsys + 3) stats: present u32, lo f64, hi f64

   The three trailing stats are net_delay, net_bw, sec_level.  All
   integers and floats use the frame's byte [order]. *)

let stat_size = 4 + 8 + 8

let encode order d =
  if String.length d.shard > 0xFFFF then
    invalid_arg "Digest.encode: shard name too long";
  let nsys = Array.length d.sys in
  if nsys > 0xFFFF then invalid_arg "Digest.encode: too many columns";
  let head = 2 + String.length d.shard + 4 + 4 + 2 in
  let b = Bytes.create (head + ((nsys + 3) * stat_size)) in
  Endian.set_u16 order b ~pos:0 (String.length d.shard);
  Bytes.blit_string d.shard 0 b 2 (String.length d.shard);
  let pos = 2 + String.length d.shard in
  Endian.set_u32 order b ~pos (d.generation land 0xFFFFFFFF);
  Endian.set_u32 order b ~pos:(pos + 4) (d.servers land 0xFFFFFFFF);
  Endian.set_u16 order b ~pos:(pos + 8) nsys;
  let write i s =
    let pos = head + (i * stat_size) in
    Endian.set_u32 order b ~pos (s.present land 0xFFFFFFFF);
    Endian.set_f64 order b ~pos:(pos + 4) s.lo;
    Endian.set_f64 order b ~pos:(pos + 12) s.hi
  in
  Array.iteri write d.sys;
  write nsys d.net_delay;
  write (nsys + 1) d.net_bw;
  write (nsys + 2) d.sec_level;
  Bytes.to_string b

let decode order s =
  let len = String.length s in
  if len < 2 then Error "digest: truncated"
  else begin
    let shard_len = Endian.get_u16 order s ~pos:0 in
    if len < 2 + shard_len + 10 then Error "digest: truncated header"
    else begin
      let shard = String.sub s 2 shard_len in
      let pos = 2 + shard_len in
      let generation = Endian.get_u32 order s ~pos in
      let servers = Endian.get_u32 order s ~pos:(pos + 4) in
      let nsys = Endian.get_u16 order s ~pos:(pos + 8) in
      let head = pos + 10 in
      if len <> head + ((nsys + 3) * stat_size) then
        Error "digest: truncated stats"
      else begin
        let read i =
          let pos = head + (i * stat_size) in
          {
            present = Endian.get_u32 order s ~pos;
            lo = Endian.get_f64 order s ~pos:(pos + 4);
            hi = Endian.get_f64 order s ~pos:(pos + 12);
          }
        in
        Ok
          {
            shard;
            generation;
            servers;
            sys = Array.init nsys read;
            net_delay = read nsys;
            net_bw = read (nsys + 1);
            sec_level = read (nsys + 2);
          }
      end
    end
  end
