let encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  let digit d = Char.chr (if d < 10 then Char.code '0' + d else Char.code 'a' + d - 10) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) (digit (c lsr 4));
    Bytes.set b ((2 * i) + 1) (digit (c land 15))
  done;
  Bytes.unsafe_to_string b

let decode s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Hex.decode: odd length";
  let v c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Hex.decode: not a hex digit"
  in
  String.init (n / 2) (fun i -> Char.chr ((v s.[2 * i] lsl 4) lor v s.[(2 * i) + 1]))

(* A sealed payload is the hex of [digest ^ bytes]: the 16-byte MD5 of
   the marshalled bytes, then the bytes.  The digest is checked before
   [Marshal.from_string] sees anything, because unmarshalling corrupt
   bytes is not a clean error — a flipped length field can ask for
   gigabytes or build a value of the wrong shape. *)
let seal v =
  let bytes = Marshal.to_string v [] in
  encode (Digest.string bytes ^ bytes)

let unseal s =
  match decode s with
  | exception Invalid_argument _ -> None
  | raw when String.length raw < 16 -> None
  | raw ->
    let digest = String.sub raw 0 16 and bytes = String.sub raw 16 (String.length raw - 16) in
    if Digest.equal digest (Digest.string bytes) then Some (Marshal.from_string bytes 0) else None
