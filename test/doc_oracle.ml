(* Tree-level reference for [Doc]'s mutations: rebuild the parsed-tree form
   of a document with one edit applied and flatten it again through
   [Doc.of_tree]. The library splices its node array instead; the two must
   agree record for record ([Doc_pack.pack]). *)

module Doc = Xdm.Doc
module T = Xdm.Xml_tree

type edit =
  | Drop of int
  | Set_value of int * string
  | Graft of { parent : int; before : int option; tree : T.t }

let attr_name d j =
  let l = Doc.label d j in
  String.sub l 1 (String.length l - 1)

let rebuild d edit =
  let rec go i =
    match Doc.kind d i with
    | Doc.Text ->
        T.Text (match edit with Set_value (k, v) when k = i -> v | _ -> Doc.value d i)
    | Doc.Attribute ->
        (* Attributes are folded into their owning element below. *)
        assert false
    | Doc.Element ->
        let cs = Doc.children d i in
        let attrs =
          List.filter_map
            (fun j ->
              if Doc.kind d j <> Doc.Attribute then None
              else
                match edit with
                | Drop k when k = j -> None
                | Set_value (k, v) when k = j -> Some (attr_name d j, v)
                | _ -> Some (attr_name d j, Doc.value d j))
            cs
        in
        let kids = List.filter (fun j -> Doc.kind d j <> Doc.Attribute) cs in
        let built =
          List.concat_map
            (fun j ->
              let sub = match edit with Drop k when k = j -> [] | _ -> [ go j ] in
              match edit with
              | Graft { parent; before = Some b; tree } when parent = i && b = j ->
                  tree :: sub
              | _ -> sub)
            kids
        in
        let built =
          match edit with
          | Graft { parent; before = None; tree } when parent = i -> built @ [ tree ]
          | _ -> built
        in
        T.Element { tag = Doc.label d i; attrs; children = built }
  in
  go (Doc.root d)

(* The edit applied the reference way. *)
let apply d edit = Doc.of_tree ~name:(Doc.name d) (rebuild d edit)

(* The same edit through the library's splicing mutation. *)
let splice d = function
  | Drop i -> Doc.delete_subtree d i
  | Set_value (i, v) -> Doc.update_value d i v
  | Graft { parent; before; tree } -> Doc.insert_subtree d ~parent ?before tree

let of_mutation : Xengine.Engine.mutation -> edit = function
  | Insert_subtree { parent; before; xml } -> Graft { parent; before; tree = T.parse xml }
  | Delete_subtree { node } -> Drop node
  | Update_value { node; value } -> Set_value (node, value)
