exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- Writing ------------------------------------------------------------- *)

type ints = Fixed | Varint

(* Where a writer's bytes go, with how it writes integers: kept for
   [contents], or handed to a sink. One field for both, and [Keep] of a
   constant is a static value, so a plain writer (the WAL makes two per
   record) allocates no more than before streams had two encodings. *)
type target = Keep of ints | Spill of ints * (Bytes.t -> int -> unit)

(* [len] bytes pending in [buf]; [spilled] bytes already handed to the
   sink, which a spilling writer calls whenever [buf] fills and on
   [flush]. *)
type writer = {
  mutable buf : Bytes.t;
  mutable len : int;
  mutable spilled : int;
  target : target;
}

let writer ?(ints = Fixed) () =
  let target = match ints with Fixed -> Keep Fixed | Varint -> Keep Varint in
  { buf = Bytes.create 256; len = 0; spilled = 0; target }

let spilling ?(ints = Fixed) sink =
  { buf = Bytes.create 65536; len = 0; spilled = 0; target = Spill (ints, sink) }

let writer_ints w = match w.target with Keep ints | Spill (ints, _) -> ints

let flush w =
  match w.target with
  | Spill (_, f) when w.len > 0 ->
      f w.buf w.len;
      w.spilled <- w.spilled + w.len;
      w.len <- 0
  | _ -> ()

let reserve w k =
  if w.len + k > Bytes.length w.buf then begin
    flush w;
    if w.len + k > Bytes.length w.buf then begin
      let b = Bytes.create (max (w.len + k) (2 * Bytes.length w.buf)) in
      Bytes.blit w.buf 0 b 0 w.len;
      w.buf <- b
    end
  end

let contents w =
  (match w.target with
  | Spill _ -> invalid_arg "Binio.contents: a spilling writer keeps no contents"
  | Keep _ -> ());
  Bytes.sub_string w.buf 0 w.len

let size w = w.spilled + w.len

let w_u8 w v =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xff));
  w.len <- w.len + 1

let w_bool w v = w_u8 w (if v then 1 else 0)

(* LEB128 over the 63 bits of an OCaml int: seven bits a byte, low
   first, the top bit set on every byte but the last. [v lsr 7] is a
   logical shift, so a negative [v] takes the full nine bytes. *)
let w_varint w v =
  reserve w 9;
  let b = w.buf and v = ref v and i = ref w.len in
  while !v lsr 7 <> 0 do
    Bytes.unsafe_set b !i (Char.unsafe_chr (!v land 0x7f lor 0x80));
    v := !v lsr 7;
    incr i
  done;
  Bytes.unsafe_set b !i (Char.unsafe_chr !v);
  w.len <- !i + 1

let w_int w v =
  match w.target with
  | Keep Varint | Spill (Varint, _) -> w_varint w v
  | Keep Fixed | Spill (Fixed, _) ->
      reserve w 8;
      Bytes.set_int64_le w.buf w.len (Int64.of_int v);
      w.len <- w.len + 8

(* Zigzag: 0, -1, 1, -2, ... map to 0, 1, 2, 3, ..., so a small
   magnitude of either sign takes few bytes; [min_int] and [max_int]
   map to the two largest 63-bit patterns. *)
let w_sint w v =
  match writer_ints w with
  | Varint -> w_varint w ((v lsl 1) lxor (v asr 62))
  | Fixed -> w_int w v

let w_str w s =
  let n = String.length s in
  w_int w n;
  reserve w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

(* --- Reading ------------------------------------------------------------- *)

type reader = { data : string; mutable pos : int; limit : int; r_ints : ints }

let reader ?(ints = Fixed) ?(pos = 0) ?len data =
  let len = match len with Some l -> l | None -> String.length data - pos in
  if pos < 0 || len < 0 || pos + len > String.length data then
    corrupt "slice [%d, +%d) outside %d bytes" pos len (String.length data);
  { data; pos; limit = pos + len; r_ints = ints }

let reader_ints r = r.r_ints

let int_bytes r = match r.r_ints with Fixed -> 8 | Varint -> 1

let remaining r = r.limit - r.pos

let need r n what = if remaining r < n then corrupt "truncated: %s needs %d bytes, %d remain" what n (remaining r)

let r_u8 r =
  need r 1 "u8";
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> corrupt "bool byte is %d" v

(* Nine bytes carry 63 bits, all of an OCaml int; a ninth byte with its
   continuation bit set would push the value past them. *)
let r_varint r =
  let v = ref 0 and shift = ref 0 and i = ref r.pos and fin = ref false in
  while not !fin do
    if !i >= r.limit then corrupt "truncated: varint runs past the section";
    let c = Char.code (String.unsafe_get r.data !i) in
    incr i;
    if c < 0x80 then fin := true
    else if !shift = 56 then corrupt "varint longer than 9 bytes overflows 63 bits";
    v := !v lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7
  done;
  r.pos <- !i;
  !v

let r_int r =
  match r.r_ints with
  | Varint ->
      (* one-byte fast path: most counts, lengths and indices *)
      if r.pos < r.limit && Char.code (String.unsafe_get r.data r.pos) < 0x80 then begin
        let v = Char.code (String.unsafe_get r.data r.pos) in
        r.pos <- r.pos + 1;
        v
      end
      else r_varint r
  | Fixed ->
      need r 8 "int";
      let v = Int64.to_int (String.get_int64_le r.data r.pos) in
      r.pos <- r.pos + 8;
      v

let r_sint r =
  match r.r_ints with
  | Varint ->
      let z = r_varint r in
      (z lsr 1) lxor (-(z land 1))
  | Fixed -> r_int r

let r_str r =
  let n = r_int r in
  if n < 0 then corrupt "negative string length %d" n;
  need r n "string body";
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let expect_end r =
  if remaining r <> 0 then corrupt "%d trailing bytes in section" (remaining r)

(* --- CRC-32 -------------------------------------------------------------- *)

(* Slicing-by-8: table [k] advances the register over a byte followed by
   [k] zero bytes, so eight table lookups fold eight bytes at once. The
   eight tables live in one array, [k * 256 + byte], holding 32-bit
   values in native ints. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t

(* [k * 256 + byte]: every index below stays under 2048. *)
let[@inline] tb k i = Array.unsafe_get crc_tables ((k lsl 8) lor i)
let[@inline] word data i = Int32.to_int (String.get_int32_le data i) land 0xFFFFFFFF

let crc32 ?(crc = 0) ?(pos = 0) ?len data =
  let len = match len with Some l -> l | None -> String.length data - pos in
  if pos < 0 || len < 0 || pos + len > String.length data then
    corrupt "crc32 slice [%d, +%d) outside %d bytes" pos len (String.length data);
  let stop = pos + len in
  let c = ref (crc lxor 0xFFFFFFFF) and i = ref pos in
  while !i + 8 <= stop do
    let lo = !c lxor word data !i and hi = word data (!i + 4) in
    c :=
      tb 7 (lo land 0xff)
      lxor tb 6 ((lo lsr 8) land 0xff)
      lxor tb 5 ((lo lsr 16) land 0xff)
      lxor tb 4 (lo lsr 24)
      lxor tb 3 (hi land 0xff)
      lxor tb 2 ((hi lsr 8) land 0xff)
      lxor tb 1 ((hi lsr 16) land 0xff)
      lxor tb 0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := tb 0 ((!c lxor Char.code (String.unsafe_get data !i)) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF
