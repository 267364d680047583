(* Byte-at-a-time references for [Xpersist.Binio]'s integer and CRC-32
   encoders: the library folds eight bytes per step, and these define
   what every step must produce. *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let crc32 ~pos ~len data =
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    c :=
      Int32.logxor
        crc_table.(Int32.to_int
                     (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code data.[i]))) 0xffl))
        (Int32.shift_right_logical !c 8)
  done;
  Int32.to_int (Int32.logxor !c 0xFFFFFFFFl) land 0xFFFFFFFF

(* 8-byte little-endian two's complement. *)
let int_bytes v =
  let v = Int64.of_int v in
  String.init 8 (fun shift ->
      Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * shift)) 0xffL)))

(* LEB128 over the 63 bits of an int: seven bits a byte, low first, the
   continuation bit on every byte but the last. Computed on the unsigned
   63-bit value by division, not by shifting. *)
let varint_bytes v =
  let rec go u acc =
    let low = Int64.to_int (Int64.rem u 128L) and rest = Int64.div u 128L in
    if rest = 0L then List.rev (Char.chr low :: acc)
    else go rest (Char.chr (low + 128) :: acc)
  in
  String.of_seq (List.to_seq (go (Int64.logand (Int64.of_int v) 0x7FFF_FFFF_FFFF_FFFFL) []))
